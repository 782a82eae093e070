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
// them.
func TestEventOrderDigest(t *testing.T) {
	want := map[Kind]struct {
		steps  uint64
		digest string
	}{
		CC:        {18372, "9b0fbf9ca9467d2e6b8c721329db054f3b0d50d1163b63f3e52e6730802c7c14"},
		SmartSage: {12880, "d65180d38f0afc6cea1bba1137145cea4bc3a2e88f0f849ea899e490c40aa71e"},
		GList:     {12324, "748933e1e978255f40195df41665401f0a881138af3c8dbd66ca2a2599357416"},
		BG1:       {9412, "049407c6f877816a80db88d57136697497448d169a9b58c68b4363b440ef8917"},
		BGDG:      {8378, "74cc366deb1d68fcff6dfa89c46ac676d9d7d69cb951566af910c49562ed4b94"},
		BGSP:      {11820, "71ac41d69619cdf5896220dba44d255b0a2e1152bb1ac35f7ac2fcd697c9b9f5"},
		BGDGSP:    {10572, "6dadae418f9f33b814a703761cbd902ddf326c217175607dc241ebe4b81e5d62"},
		BG2:       {9232, "403b1baf54f02fd38d88364e940075e58cc969feed627a06a3a182f2cc8a1b58"},
	}
	inst := testInstance(t)
	cfg := config.Default()
	cfg.GNN.BatchSize = 16
	for _, k := range All() {
		s, err := NewSystem(k, cfg, inst, 0)
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
		if w := want[k]; steps != w.steps || got != w.digest {
			t.Errorf("%v: steps %d digest %s, want steps %d digest %s", k, steps, got, w.steps, w.digest)
		}
	}
}
