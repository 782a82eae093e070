package cluster

import (
	"reflect"
	"sync"
	"testing"

	"beacongnn/internal/dataset"
	"beacongnn/internal/pool"
)

var (
	testInstOnce sync.Once
	testInstVal  *dataset.Instance
	testInstErr  error
)

func testInstance(t testing.TB) *dataset.Instance {
	t.Helper()
	testInstOnce.Do(func() {
		var d dataset.Desc
		d, testInstErr = dataset.ByName("amazon")
		if testInstErr != nil {
			return
		}
		testInstVal, testInstErr = dataset.Materialize(d, 1500, 4096, 0xBEAC0)
	})
	if testInstErr != nil {
		t.Fatal(testInstErr)
	}
	return testInstVal
}

func testConfig(shards int) Config {
	return Config{Shards: shards, Batches: 3, Seed: 7}
}

func TestRunDeterministic(t *testing.T) {
	inst := testInstance(t)
	for _, name := range PartitionerNames() {
		c := testConfig(3)
		c.Partitioner = name
		a, err := Run(c, inst)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(c, inst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: two identical runs diverged:\n%+v\n%+v", name, a, b)
		}
	}
}

func TestRunInvariants(t *testing.T) {
	inst := testInstance(t)
	for _, shards := range []int{1, 2, 4} {
		res, err := Run(testConfig(shards), inst)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Check(); err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if shards == 1 {
			if res.CrossChildren != 0 {
				t.Fatalf("single shard produced cross-shard children: %d", res.CrossChildren)
			}
		} else if res.CrossChildren == 0 {
			t.Fatalf("shards=%d: expected cross-shard traffic on a hash partition", shards)
		}
		if res.Fetches == 0 || res.Samples == 0 {
			t.Fatalf("shards=%d: empty run: %+v", shards, res)
		}
		if res.FabricBytes == 0 {
			t.Fatalf("shards=%d: coordinator traffic never touched the fabric", shards)
		}
	}
}

// The workload is a pure function of the seed, so the fetch/sample
// ledger must be identical at every shard count — only timing and
// traffic may differ.
func TestWorkloadIdenticalAcrossShardCounts(t *testing.T) {
	inst := testInstance(t)
	base, err := Run(testConfig(1), inst)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		res, err := Run(testConfig(shards), inst)
		if err != nil {
			t.Fatal(err)
		}
		if res.Fetches != base.Fetches || res.Samples != base.Samples {
			t.Fatalf("shards=%d: ledger moved: fetches %d vs %d, samples %d vs %d",
				shards, res.Fetches, base.Fetches, res.Samples, base.Samples)
		}
	}
}

func TestClusterScalesThroughput(t *testing.T) {
	inst := testInstance(t)
	one, err := Run(testConfig(1), inst)
	if err != nil {
		t.Fatal(err)
	}
	four, err := Run(testConfig(4), inst)
	if err != nil {
		t.Fatal(err)
	}
	if four.Throughput <= one.Throughput {
		t.Fatalf("4 shards (%.1f targets/s) not faster than 1 (%.1f targets/s)",
			four.Throughput, one.Throughput)
	}
}

func TestFailureDrillRebalances(t *testing.T) {
	inst := testInstance(t)
	c := testConfig(4)
	c.Batches = 4
	c.Fail = true
	c.FailShard = 1
	c.FailAfterBatch = 1
	res, err := Run(c, inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Check(); err != nil {
		t.Fatal(err)
	}
	if !res.Failed || res.FailShard != 1 || res.BackupShard != 2 {
		t.Fatalf("failure drill not recorded: %+v", res)
	}
	if res.MovedBytes <= 0 {
		t.Fatalf("re-replication moved %d bytes", res.MovedBytes)
	}
	if res.DegradedFetches == 0 {
		t.Fatal("no fetch was served degraded during the move window")
	}
	if res.Availability >= 1 || res.Availability <= 0 {
		t.Fatalf("availability %v outside (0,1) for a failure drill", res.Availability)
	}
	// The dead device serves nothing after the handover batch; its read
	// count must sit below every survivor's.
	for s, reads := range res.ShardReads {
		if s == c.FailShard {
			continue
		}
		if res.ShardReads[c.FailShard] >= reads {
			t.Fatalf("dead shard %d read %d pages, survivor %d only %d",
				c.FailShard, res.ShardReads[c.FailShard], s, reads)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	inst := testInstance(t)
	bad := []Config{
		{Shards: 0},
		{Shards: 2, Partitioner: "nope"},
		{Shards: 2, Fail: true, FailShard: 5},
		{Shards: 1, Fail: true, FailShard: 0},
		{Shards: 2, Fail: true, FailShard: 0, FailAfterBatch: 99},
	}
	for i, c := range bad {
		if _, err := Run(c, inst); err == nil {
			t.Fatalf("config %d accepted: %+v", i, c)
		}
	}
}

// Coordinator hammer for -race: many full cluster runs in flight at
// once, each on its own kernel, all producing identical results.
func TestCoordinatorRaceHammer(t *testing.T) {
	inst := testInstance(t)
	const workers = 8
	c := testConfig(3)
	c.Partitioner = PartitionLocality
	results := make([]*Result, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = Run(c, inst)
		}(i)
	}
	wg.Wait()
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("concurrent run %d diverged from run 0", i)
		}
	}
}

// TestWarmRunConstructsNoSenseState checks that a cluster run hands
// every shard backend's free list and its kernel's server set back: a
// second identical run draws all of its flash sense state and its
// shards' and fabric's servers from them and constructs nothing.
func TestWarmRunConstructsNoSenseState(t *testing.T) {
	if pool.Disabled() {
		t.Skip("pooling disabled")
	}
	inst := testInstance(t)
	c := testConfig(4)
	if _, err := Run(c, inst); err != nil {
		t.Fatal(err)
	}
	before := pool.Constructed()
	if _, err := Run(c, inst); err != nil {
		t.Fatal(err)
	}
	if n := pool.Constructed() - before; n != 0 {
		t.Fatalf("warm cluster run constructed %d pooled objects, want 0", n)
	}
}
