package platform

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/sim"
)

// spanHasher folds every traced service span, in the order the event
// loop completes them, into one SHA-256 digest.
type spanHasher struct {
	h   hash.Hash
	buf [8]byte
}

func (s *spanHasher) word(v int64) {
	binary.LittleEndian.PutUint64(s.buf[:], uint64(v))
	s.h.Write(s.buf[:])
}

func (s *spanHasher) ServerSpan(resource string, lane int, arrived, start, end sim.Time) {
	s.h.Write([]byte(resource))
	s.word(int64(lane))
	s.word(int64(arrived))
	s.word(int64(start))
	s.word(int64(end))
}

// TestEventOrderDigest pins the exact event order of every platform on
// a fixed small instance: the ordered span stream of every traced
// resource plus the kernel's event count. Any change to the event queue
// must keep dispatch in (time, sequence) order, which leaves these
// digests unchanged; a reordering of even two same-time events moves
// them. CC, BG-SP and BG-2 are also pinned under each non-FIFO
// scheduling policy and under the fault model (raised RBER, and dead
// dies plus a dead channel).
func TestEventOrderDigest(t *testing.T) {
	sched := func(p string) func(*config.Config) {
		return func(c *config.Config) { c.Sched.Policy = p }
	}
	rber := func(c *config.Config) {
		c.Fault.Enabled = true
		c.Fault.BaseRBER = 6.1e-3
	}
	dead := func(c *config.Config) {
		c.Fault.Enabled = true
		c.Fault.DeadDies = []int{0, 5}
		c.Fault.DeadChannels = []int{1}
	}
	cases := []struct {
		name   string
		kind   Kind
		cfg    func(*config.Config)
		steps  uint64
		digest string
	}{
		{"", CC, nil, 18372, "9b0fbf9ca9467d2e6b8c721329db054f3b0d50d1163b63f3e52e6730802c7c14"},
		{"", SmartSage, nil, 12880, "d65180d38f0afc6cea1bba1137145cea4bc3a2e88f0f849ea899e490c40aa71e"},
		{"", GList, nil, 12324, "748933e1e978255f40195df41665401f0a881138af3c8dbd66ca2a2599357416"},
		{"", BG1, nil, 9412, "049407c6f877816a80db88d57136697497448d169a9b58c68b4363b440ef8917"},
		{"", BGDG, nil, 8378, "74cc366deb1d68fcff6dfa89c46ac676d9d7d69cb951566af910c49562ed4b94"},
		{"", BGSP, nil, 11820, "71ac41d69619cdf5896220dba44d255b0a2e1152bb1ac35f7ac2fcd697c9b9f5"},
		{"", BGDGSP, nil, 10572, "6dadae418f9f33b814a703761cbd902ddf326c217175607dc241ebe4b81e5d62"},
		{"", BG2, nil, 9232, "403b1baf54f02fd38d88364e940075e58cc969feed627a06a3a182f2cc8a1b58"},
		{"sjf", CC, sched("sjf"), 18372, "b8b25503ef95d599452196f1e3806c61f8a7e2c036a498ab7f30682445409330"},
		{"sjf", BGSP, sched("sjf"), 11820, "64888ed7799e6485a2c9c1596ad76336977dff6b14dd05b485dbeafe326f2432"},
		{"sjf", BG2, sched("sjf"), 9232, "bec1d41bb5dcba6f7f6fd4ea63657f3096391a83534604c34f8d1f055c32406d"},
		{"edf", CC, sched("edf"), 18372, "9912c8ab8e4b7901f141252bd97e8c0395afb599bdaf0de92150f907b387ca4e"},
		{"edf", BGSP, sched("edf"), 11820, "b512c450f5fee629d0fefc11e249c075cf7d6d7536d73fbebe14be2ae3fddf18"},
		{"edf", BG2, sched("edf"), 9232, "218a87ecd9b1192a180bd0430a87689aa010945470d0a58b84f6207bf4b6d258"},
		{"totalfit", CC, sched("totalfit"), 18372, "1ad1fb9d665e40a08f8b3ce9e02751f9f9f86d7f55a74090844742dda9b8ccf2"},
		{"totalfit", BGSP, sched("totalfit"), 11820, "9a762f28a7d165b9bb4dc53f1021c30d8b867b0c7e76bb718301720c8abf013f"},
		{"totalfit", BG2, sched("totalfit"), 9232, "361c0ac23235d96e454a3706ec6e589bd0546cb0a1b0b0f4d6a0e03aff78197f"},
		{"rber", CC, rber, 21754, "322320e339dad43ee05bc00bb2b2053ebf8abda92a47d3dbe79a0997b99d3cf4"},
		{"rber", BGSP, rber, 16394, "1c873b2ee2522386e6114d3f992245484bc49eb9b31c31b69ab9531d2e3a1852"},
		{"rber", BG2, rber, 13818, "ce00373faa1060fdd456222d25f839877ba9a6cf78d0df3c724aa0f66b7d6f69"},
		{"dead", CC, dead, 18382, "4af95eb860e9d071c5427745f00f3498f1999150d425d6a857d3d17e9acd4d12"},
		{"dead", BGSP, dead, 11848, "4214cda648512749ef604ad86a38e7e51c0e0d42c43484069f926ce46744c076"},
		{"dead", BG2, dead, 9242, "a01ef75562dff3375d27b9537e71b64464fb2456ad6797d7e399fedb7df8def0"},
	}
	inst := testInstance(t)
	for _, tc := range cases {
		cfg := config.Default()
		cfg.GNN.BatchSize = 16
		if tc.cfg != nil {
			tc.cfg(&cfg)
		}
		s, err := NewSystem(tc.kind, cfg, inst, 0)
		if err != nil {
			t.Fatal(err)
		}
		sh := &spanHasher{h: sha256.New()}
		s.SetTracer(sh)
		if _, err := s.Run(2); err != nil {
			t.Fatal(err)
		}
		steps := s.k.Steps()
		sh.word(int64(steps))
		got := hex.EncodeToString(sh.h.Sum(nil))
		if steps != tc.steps || got != tc.digest {
			t.Errorf("%v %s: steps %d digest %s, want steps %d digest %s", tc.kind, tc.name, steps, got, tc.steps, tc.digest)
		}
	}
}
