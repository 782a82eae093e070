package sampler

import (
	"encoding/binary"
	"fmt"

	"beacongnn/internal/directgraph"
)

// Wire encodings of the two customized ONFI commands and the sampling
// result (Section VI-C, Fig. 13). Data rides the existing flash data
// bus, so everything is byte-serialized; the channel-level parser and
// die control logic operate on these frames.
//
//	Global configuration (8 bytes):
//	    [0]   hops
//	    [1]   fanout
//	    [2:4] feature dim (uint16 LE)
//	    [4]   flags (bit 0: disable coalescing — ablation)
//	    [5:8] reserved
//
//	Sampling command (16 bytes = EncodedBytes):
//	    [0:4]   section address
//	    [4]     hop
//	    [5]     flags (bit 0: secondary)
//	    [6:8]   sample count (uint16 LE)
//	    [8:10]  batch id (uint16 LE)
//	    [10:12] target id low bits (uint16 LE)
//	    [12:16] parent node id (uint32 LE)
//
//	Sampling result frame (16-byte header = ResultHeaderBytes):
//	    [0:4]   node id
//	    [4:6]   follow-up command count (uint16 LE)
//	    [6:8]   feature length in FP16 elements (uint16 LE)
//	    [8]     hop
//	    [9]     status (0 = ok)
//	    [10:16] reserved
//	followed by count × 16-byte commands, then the feature vector as
//	little-endian FP16 (Result.Features, byte for byte).

// MarshalConfig encodes the global GNN configuration command payload.
func MarshalConfig(c Config) ([]byte, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if c.Hops > 255 || c.Fanout > 255 || c.FeatureDim > 65535 {
		return nil, fmt.Errorf("sampler: config out of wire range: %+v", c)
	}
	buf := make([]byte, 8)
	buf[0] = byte(c.Hops)
	buf[1] = byte(c.Fanout)
	binary.LittleEndian.PutUint16(buf[2:], uint16(c.FeatureDim))
	if c.NoCoalesce {
		buf[4] |= 1
	}
	return buf, nil
}

// UnmarshalConfig decodes a global configuration payload.
func UnmarshalConfig(buf []byte) (Config, error) {
	if len(buf) != 8 {
		return Config{}, fmt.Errorf("sampler: config frame is %d bytes, want 8", len(buf))
	}
	c := Config{
		Hops:       int(buf[0]),
		Fanout:     int(buf[1]),
		FeatureDim: int(binary.LittleEndian.Uint16(buf[2:])),
		NoCoalesce: buf[4]&1 != 0,
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// MarshalCommand encodes one sampling command. The simulation-only
// Created field is not part of the wire format and is dropped.
func MarshalCommand(c Command) ([]byte, error) {
	switch {
	case c.Hop < 0 || c.Hop > 255:
		return nil, fmt.Errorf("sampler: hop %d out of wire range", c.Hop)
	case c.SampleCount < 0 || c.SampleCount > 65535:
		return nil, fmt.Errorf("sampler: sample count %d out of wire range", c.SampleCount)
	case c.Batch < 0 || c.Batch > 65535:
		return nil, fmt.Errorf("sampler: batch %d out of wire range", c.Batch)
	case c.Target < 0:
		return nil, fmt.Errorf("sampler: negative target %d", c.Target)
	}
	buf := make([]byte, EncodedBytes)
	binary.LittleEndian.PutUint32(buf[0:], uint32(c.Addr))
	buf[4] = byte(c.Hop)
	if c.Secondary {
		buf[5] |= 1
	}
	binary.LittleEndian.PutUint16(buf[6:], uint16(c.SampleCount))
	binary.LittleEndian.PutUint16(buf[8:], uint16(c.Batch))
	binary.LittleEndian.PutUint16(buf[10:], uint16(uint32(c.Target)&0xFFFF))
	binary.LittleEndian.PutUint32(buf[12:], c.ParentNode)
	return buf, nil
}

// UnmarshalCommand decodes one sampling command frame.
func UnmarshalCommand(buf []byte) (Command, error) {
	if len(buf) != EncodedBytes {
		return Command{}, fmt.Errorf("sampler: command frame is %d bytes, want %d", len(buf), EncodedBytes)
	}
	return Command{
		Addr:        directgraph.Addr(binary.LittleEndian.Uint32(buf[0:])),
		Hop:         int(buf[4]),
		Secondary:   buf[5]&1 != 0,
		SampleCount: int(binary.LittleEndian.Uint16(buf[6:])),
		Batch:       int32(binary.LittleEndian.Uint16(buf[8:])),
		Target:      int32(binary.LittleEndian.Uint16(buf[10:])),
		ParentNode:  binary.LittleEndian.Uint32(buf[12:]),
	}, nil
}

// MarshalResult frames a sampling result for the channel bus. Its
// length equals Result.BusBytes(), keeping the timing model and the
// wire format consistent by construction.
func MarshalResult(r *Result) ([]byte, error) {
	if len(r.Commands) > 65535 || len(r.Features) > 2*65535 {
		return nil, fmt.Errorf("sampler: result too large for frame header")
	}
	if len(r.Features)%2 != 0 {
		return nil, fmt.Errorf("sampler: feature vector of %d bytes is not FP16", len(r.Features))
	}
	buf := make([]byte, ResultHeaderBytes, r.BusBytes())
	binary.LittleEndian.PutUint32(buf[0:], r.Node)
	binary.LittleEndian.PutUint16(buf[4:], uint16(len(r.Commands)))
	binary.LittleEndian.PutUint16(buf[6:], uint16(len(r.Features)/2))
	if r.Hop < 0 || r.Hop > 255 {
		return nil, fmt.Errorf("sampler: result hop %d out of wire range", r.Hop)
	}
	buf[8] = byte(r.Hop)
	for _, c := range r.Commands {
		enc, err := MarshalCommand(c)
		if err != nil {
			return nil, err
		}
		buf = append(buf, enc...)
	}
	return append(buf, r.Features...), nil
}

// UnmarshalResult parses a result frame — the data-stream parser's job
// in the channel router (Section V-B): classify the payload into new
// sampling commands and feature data. Features aliases buf.
func UnmarshalResult(buf []byte) (*Result, error) {
	if len(buf) < ResultHeaderBytes {
		return nil, fmt.Errorf("sampler: result frame too short (%d)", len(buf))
	}
	r := &Result{
		Node: binary.LittleEndian.Uint32(buf[0:]),
		Hop:  int(buf[8]),
	}
	nCmd := int(binary.LittleEndian.Uint16(buf[4:]))
	nFeat := int(binary.LittleEndian.Uint16(buf[6:]))
	if buf[9] != 0 {
		return nil, fmt.Errorf("sampler: result status %d", buf[9])
	}
	need := ResultHeaderBytes + nCmd*EncodedBytes + nFeat*2
	if len(buf) != need {
		return nil, fmt.Errorf("sampler: result frame is %d bytes, header implies %d", len(buf), need)
	}
	off := ResultHeaderBytes
	for i := 0; i < nCmd; i++ {
		c, err := UnmarshalCommand(buf[off : off+EncodedBytes])
		if err != nil {
			return nil, err
		}
		r.Commands = append(r.Commands, c)
		off += EncodedBytes
	}
	if nFeat > 0 {
		r.Features = buf[off:need:need]
	}
	return r, nil
}
