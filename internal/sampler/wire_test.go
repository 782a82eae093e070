package sampler

import (
	"bytes"
	"slices"
	"testing"
	"testing/quick"

	"beacongnn/internal/directgraph"
	"beacongnn/internal/xrand"
)

func TestConfigWireRoundTrip(t *testing.T) {
	c := Config{Hops: 3, Fanout: 3, FeatureDim: 602, NoCoalesce: true}
	buf, err := MarshalConfig(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != 8 {
		t.Fatalf("config frame = %d bytes", len(buf))
	}
	got, err := UnmarshalConfig(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != c {
		t.Fatalf("round trip: %+v != %+v", got, c)
	}
}

func TestConfigWireErrors(t *testing.T) {
	if _, err := MarshalConfig(Config{Hops: 300, Fanout: 3, FeatureDim: 4}); err == nil {
		t.Error("oversized hops accepted")
	}
	if _, err := MarshalConfig(Config{}); err == nil {
		t.Error("invalid config accepted")
	}
	if _, err := UnmarshalConfig(make([]byte, 7)); err == nil {
		t.Error("short frame accepted")
	}
	bad := make([]byte, 8) // hops = 0
	if _, err := UnmarshalConfig(bad); err == nil {
		t.Error("zero-hop frame accepted")
	}
}

func TestCommandWireRoundTripProperty(t *testing.T) {
	f := func(addr uint32, hop uint8, count uint16, batch uint16, target uint16, parent uint32, secondary bool) bool {
		c := Command{
			Addr: directgraph.Addr(addr), Hop: int(hop), SampleCount: int(count),
			Secondary: secondary, Batch: int32(batch), Target: int32(target), ParentNode: parent,
		}
		buf, err := MarshalCommand(c)
		if err != nil {
			return false
		}
		got, err := UnmarshalCommand(buf)
		if err != nil {
			return false
		}
		return got == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCommandWireDropsInstrumentation(t *testing.T) {
	c := Command{Addr: 5, Hop: 1, Created: 12345}
	buf, err := MarshalCommand(c)
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalCommand(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Created != 0 {
		t.Fatal("Created leaked onto the wire")
	}
}

func TestCommandWireErrors(t *testing.T) {
	if _, err := MarshalCommand(Command{Hop: -1}); err == nil {
		t.Error("negative hop accepted")
	}
	if _, err := MarshalCommand(Command{Batch: 1 << 17}); err == nil {
		t.Error("oversized batch accepted")
	}
	if _, err := UnmarshalCommand(make([]byte, 3)); err == nil {
		t.Error("short command frame accepted")
	}
}

func TestResultWireRoundTrip(t *testing.T) {
	r := &Result{
		Node: 99, Hop: 2,
		Commands: []Command{
			{Addr: 1, Hop: 3, ParentNode: 99},
			{Addr: 2, Hop: 2, Secondary: true, SampleCount: 4, ParentNode: 99},
		},
		Features: []byte{1, 0, 2, 0, 3, 0, 0xFF, 0xFF},
	}
	buf, err := MarshalResult(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != r.BusBytes() {
		t.Fatalf("frame %d bytes, BusBytes says %d — timing/wire mismatch", len(buf), r.BusBytes())
	}
	got, err := UnmarshalResult(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != r.Node || got.Hop != r.Hop || len(got.Commands) != 2 || len(got.Features) != 2*4 {
		t.Fatalf("round trip = %+v", got)
	}
	for i := range r.Commands {
		if got.Commands[i] != r.Commands[i] {
			t.Fatalf("command %d mismatch", i)
		}
	}
	if !slices.Equal(got.FeatureBits(), []uint16{1, 2, 3, 0xFFFF}) {
		t.Fatalf("features = %v", got.FeatureBits())
	}
}

func TestResultWireErrors(t *testing.T) {
	if _, err := UnmarshalResult(make([]byte, 4)); err == nil {
		t.Error("short result accepted")
	}
	// Header claiming more commands than the frame holds.
	r := &Result{Node: 1}
	buf, _ := MarshalResult(r)
	buf[4] = 9
	if _, err := UnmarshalResult(buf); err == nil {
		t.Error("inconsistent header accepted")
	}
	// Non-zero status byte.
	buf2, _ := MarshalResult(r)
	buf2[9] = 1
	if _, err := UnmarshalResult(buf2); err == nil {
		t.Error("error status accepted")
	}
}

func TestExecuteResultIsWireSerializable(t *testing.T) {
	// Every result the functional sampler produces must serialize and
	// parse back identically — the property the channel router relies on.
	_, b := buildFixture(t, 400, 40, 16, 4096, 12)
	cfg := Config{Hops: 3, Fanout: 3, FeatureDim: 16}
	trng := xrand.New(5)
	for v := 0; v < 50; v++ {
		addr := b.NodeAddr(int32(v))
		res, err := Execute(b.Layout, pageOf(b, addr), Command{Addr: addr, Hop: 0, Target: int32(v)}, cfg, trng)
		if err != nil {
			t.Fatal(err)
		}
		buf, err := MarshalResult(res)
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		got, err := UnmarshalResult(buf)
		if err != nil {
			t.Fatalf("node %d: %v", v, err)
		}
		if len(got.Commands) != len(res.Commands) || len(got.Features) != len(res.Features) {
			t.Fatalf("node %d: lossy round trip", v)
		}
	}
}

func FuzzUnmarshalResult(f *testing.F) {
	r := &Result{Node: 7, Commands: []Command{{Addr: 3, Hop: 1}}, Features: []byte{9, 0}}
	seed, _ := MarshalResult(r)
	f.Add(seed)
	f.Add([]byte{})
	f.Add(make([]byte, ResultHeaderBytes))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Must never panic; on success, re-marshaling must reproduce
		// the same frame length, the feature bytes must be the frame's
		// tail, and the re-marshaled frame must round-trip byte for byte.
		got, err := UnmarshalResult(data)
		if err != nil {
			return
		}
		if got.BusBytes() != len(data) {
			t.Fatalf("accepted frame of %d bytes but BusBytes = %d", len(data), got.BusBytes())
		}
		if !bytes.Equal(got.Features, data[len(data)-len(got.Features):]) {
			t.Fatal("feature bytes are not the frame's tail")
		}
		frame, err := MarshalResult(got)
		if err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		back, err := UnmarshalResult(frame)
		if err != nil {
			t.Fatalf("re-encoded frame rejected: %v", err)
		}
		if again, err := MarshalResult(back); err != nil || !bytes.Equal(again, frame) {
			t.Fatalf("re-encoded frame does not round-trip: %v", err)
		}
	})
}

func FuzzUnmarshalCommand(f *testing.F) {
	c := Command{Addr: 77, Hop: 2, SampleCount: 3}
	seed, _ := MarshalCommand(c)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := UnmarshalCommand(data)
		if err != nil {
			return
		}
		buf, err := MarshalCommand(got)
		if err != nil {
			t.Fatalf("decoded command does not re-encode: %v", err)
		}
		if len(buf) != EncodedBytes {
			t.Fatal("re-encoded length wrong")
		}
	})
}
