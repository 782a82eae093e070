package exp

import (
	"fmt"
	"math"
	"reflect"
	"unsafe"

	"beacongnn/internal/config"
)

// ConfigDigest returns a stable FNV-64a digest of every field of the
// config: any change — seed, ablations, timing, geometry — changes the
// digest and therefore misses the cache.
//
// It walks digestPlan, config.Config's leaves in declaration order,
// hashing each leaf's bits: ints and uints as 8-byte words, floats as
// their IEEE-754 bits, bools as 0 or 1, strings as their length then
// their bytes, and a slice as its length then its elements. The
// length prefixes keep adjacent variable-length leaves from aliasing
// (moving a dead die into the dead-channel list changes the digest),
// and an empty slice hashes like a nil one: both mean no dead units.
// The walk reads each leaf at its offset, with no reflection per call.
func ConfigDigest(cfg *config.Config) uint64 {
	h := uint64(fnvOffset)
	base := unsafe.Pointer(cfg)
	for _, l := range digestPlan {
		p := unsafe.Add(base, l.off)
		switch l.kind {
		case leafBool:
			var w uint64
			if *(*bool)(p) {
				w = 1
			}
			h = fnvWord(h, w)
		case leafInt:
			h = fnvWord(h, uint64(*(*int)(p)))
		case leafInt64:
			h = fnvWord(h, uint64(*(*int64)(p)))
		case leafUint64:
			h = fnvWord(h, *(*uint64)(p))
		case leafFloat64:
			h = fnvWord(h, math.Float64bits(*(*float64)(p)))
		case leafString:
			s := *(*string)(p)
			h = fnvWord(h, uint64(len(s)))
			for i := 0; i < len(s); i++ {
				h = (h ^ uint64(s[i])) * fnvPrime
			}
		case leafInts:
			s := *(*[]int)(p)
			h = fnvWord(h, uint64(len(s)))
			for _, v := range s {
				h = fnvWord(h, uint64(v))
			}
		}
	}
	return h
}

// FNV-64a parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvWord folds w's eight bytes, least significant first, into h.
func fnvWord(h, w uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ w&0xff) * fnvPrime
		w >>= 8
	}
	return h
}

// leafKind is how ConfigDigest reads one leaf.
type leafKind uint8

const (
	leafBool leafKind = iota
	leafInt
	leafInt64
	leafUint64
	leafFloat64
	leafString
	leafInts // []int
)

// digestLeaf is one hashable field: its offset in config.Config and how
// to read it.
type digestLeaf struct {
	off  uintptr
	kind leafKind
}

// digestPlan is compiled once, by reflection, when the package loads.
var digestPlan = compileDigest(reflect.TypeOf(config.Config{}), 0, nil)

// compileDigest appends the leaves of a value of type t stored at off.
// It panics on a kind it cannot hash — a map, pointer or interface
// would digest by identity or not at all, letting different configs
// share a memo entry — so such a field fails every test that loads the
// package instead of aliasing keys.
func compileDigest(t reflect.Type, off uintptr, plan []digestLeaf) []digestLeaf {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			plan = compileDigest(f.Type, off+f.Offset, plan)
		}
		return plan
	case reflect.Bool:
		return append(plan, digestLeaf{off, leafBool})
	case reflect.Int:
		return append(plan, digestLeaf{off, leafInt})
	case reflect.Int64:
		return append(plan, digestLeaf{off, leafInt64})
	case reflect.Uint64:
		return append(plan, digestLeaf{off, leafUint64})
	case reflect.Float64:
		return append(plan, digestLeaf{off, leafFloat64})
	case reflect.String:
		return append(plan, digestLeaf{off, leafString})
	case reflect.Slice:
		if t.Elem().Kind() == reflect.Int {
			return append(plan, digestLeaf{off, leafInts})
		}
	}
	panic(fmt.Sprintf("exp: ConfigDigest cannot hash a field of type %v", t))
}
