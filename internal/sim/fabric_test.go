package sim

import "testing"

func TestFabricLoopbackIsFree(t *testing.T) {
	k := New()
	f := NewFabric(k, 2, 1e9, Microsecond)
	fired := false
	k.At(0, func() { f.Send(1, 1, 4096, func() { fired = true }) })
	k.Run()
	if !fired {
		t.Fatal("loopback send never completed")
	}
	if k.Now() != 0 {
		t.Fatalf("loopback send advanced time to %v", k.Now())
	}
	if f.BytesTotal() != 0 || f.Messages() != 0 {
		t.Fatalf("loopback counted as fabric traffic: %d bytes, %d msgs", f.BytesTotal(), f.Messages())
	}
}

func TestFabricChargesBothPortsOnce(t *testing.T) {
	k := New()
	// 1 GB/s, 1 µs wire latency: 4096 B occupies each port ~4.096 µs.
	f := NewFabric(k, 3, 1e9, Microsecond)
	var doneAt Time
	k.At(0, func() { f.Send(0, 2, 4096, func() { doneAt = k.Now() }) })
	k.Run()
	// egress occupancy + wire latency + ingress occupancy.
	want := f.OccupancyFor(4096)*2 + Microsecond
	if doneAt != want {
		t.Fatalf("message completed at %v, want %v", doneAt, want)
	}
	if f.sentBy[0] != 4096 || f.BytesTotal() != 4096 {
		t.Fatalf("byte accounting wrong: from0=%d total=%d", f.sentBy[0], f.BytesTotal())
	}
	for i := range f.egress {
		eb, eq := f.egress[i].Occupancy()
		ib, iq := f.ingress[i].Occupancy()
		if eb+eq+ib+iq > 0 {
			t.Fatalf("port %d not drained", i)
		}
	}
}

func TestFabricSenderAndReceiverQueueIndependently(t *testing.T) {
	k := New()
	f := NewFabric(k, 3, 1e9, 0)
	per := f.OccupancyFor(1000)
	var secondFrom0, fromOther Time
	k.At(0, func() {
		f.Send(0, 1, 1000, func() {})
		f.Send(0, 2, 1000, func() { secondFrom0 = k.Now() })
		f.Send(1, 2, 1000, func() { fromOther = k.Now() })
	})
	k.Run()
	// The two sends from endpoint 0 serialize on its egress port.
	if secondFrom0 < 2*per {
		t.Fatalf("second send from 0 finished at %v, want >= %v (egress serialization)", secondFrom0, 2*per)
	}
	// Endpoint 1's send does not wait behind endpoint 0's egress queue.
	if fromOther > 2*per {
		t.Fatalf("send from endpoint 1 finished at %v — it queued behind another sender's egress", fromOther)
	}
}

func TestFabricDeterministic(t *testing.T) {
	run := func() (Time, uint64) {
		k := New()
		f := NewFabric(k, 4, 2e9, 500*Nanosecond)
		var last Time
		k.At(0, func() {
			for i := 0; i < 32; i++ {
				src, dst := i%4, (i+1)%4
				f.Send(src, dst, 512*(i+1), func() { last = k.Now() })
			}
		})
		k.Run()
		return last, f.BytesTotal()
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("fabric run not deterministic: (%v,%d) vs (%v,%d)", t1, b1, t2, b2)
	}
}
