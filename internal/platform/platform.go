// Package platform assembles the substrate models into the eight GNN
// acceleration systems the paper evaluates (Section VII-A):
//
//	CC        — CPU-centric baseline: host samples, discrete TPU computes.
//	SmartSage — firmware sampling offload, features + compute on host/TPU.
//	GList     — feature lookup + compute offloaded, host samples.
//	BG-1      — BeaconGNN-1.0: full offload, firmware sampling, page
//	            transfers, hop barriers.
//	BG-DG     — BG-1 + DirectGraph: no translation, out-of-order hops.
//	BG-SP     — BG-1 + die-level samplers: result-granular transfers.
//	BG-DGSP   — DirectGraph + die samplers.
//	BG-2      — BeaconGNN-2.0: BG-DGSP + hardware command routing.
//
// Each platform is a capability vector over four axes — where sampling
// runs, whether hops stream out of order, whether the backend control
// path is hardware, and where features/compute live — and one shared
// event-driven engine executes the resulting pipeline.
package platform

import (
	"fmt"
	"strings"
)

// Kind names an evaluated system.
type Kind int

// The evaluated systems, in Figure 14 order.
const (
	CC Kind = iota
	SmartSage
	GList
	BG1
	BGDG
	BGSP
	BGDGSP
	BG2
	numKinds
)

// All returns every platform in Figure 14 order.
func All() []Kind {
	return []Kind{CC, SmartSage, GList, BG1, BGDG, BGSP, BGDGSP, BG2}
}

// BGOnly returns the six BG-X platforms used in the sensitivity tests.
func BGOnly() []Kind { return []Kind{BG1, BGDG, BGSP, BGDGSP, BG2} }

func (k Kind) String() string {
	switch k {
	case CC:
		return "CC"
	case SmartSage:
		return "SmartSage"
	case GList:
		return "GList"
	case BG1:
		return "BG-1"
	case BGDG:
		return "BG-DG"
	case BGSP:
		return "BG-SP"
	case BGDGSP:
		return "BG-DGSP"
	case BG2:
		return "BG-2"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// ByName parses a platform name. Matching ignores case and separators,
// so "BG-2", "bg2", and "bg_2" all resolve to BG2.
func ByName(name string) (Kind, error) {
	want := normalizeName(name)
	for k, n := range normalizedNames {
		if n == want {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("platform: unknown platform %q", name)
}

// normalizedNames holds each kind's normalized name, computed once:
// ByName sits on every simulate request's path.
var normalizedNames = func() (out [numKinds]string) {
	for k := range out {
		out[k] = normalizeName(Kind(k).String())
	}
	return out
}()

func normalizeName(s string) string {
	s = strings.ToLower(s)
	return strings.Map(func(r rune) rune {
		switch r {
		case '-', '_', ' ':
			return -1
		}
		return r
	}, s)
}

// SamplerLoc says where neighbor sampling executes.
type SamplerLoc int

// Sampling locations.
const (
	SampleOnHost SamplerLoc = iota
	SampleInFirmware
	SampleOnDie
)

// Caps is a platform's capability vector.
type Caps struct {
	Sampler     SamplerLoc
	OutOfOrder  bool // no hop barriers (DirectGraph, Section IV)
	HWRouting   bool // channel-level command router (Section V-B)
	DirectGraph bool // flash-physical addressing, no translations
	InternalFT  bool // feature path stays inside the SSD
	ComputeSSD  bool // GNN computation on the bus-attached accelerator
}

// CapsOf returns the capability vector of a platform.
func CapsOf(k Kind) Caps {
	switch k {
	case CC:
		return Caps{Sampler: SampleOnHost}
	case SmartSage:
		return Caps{Sampler: SampleInFirmware}
	case GList:
		return Caps{Sampler: SampleOnHost, InternalFT: true, ComputeSSD: true}
	case BG1:
		return Caps{Sampler: SampleInFirmware, InternalFT: true, ComputeSSD: true}
	case BGDG:
		return Caps{Sampler: SampleInFirmware, OutOfOrder: true, DirectGraph: true, InternalFT: true, ComputeSSD: true}
	case BGSP:
		return Caps{Sampler: SampleOnDie, InternalFT: true, ComputeSSD: true}
	case BGDGSP:
		return Caps{Sampler: SampleOnDie, OutOfOrder: true, DirectGraph: true, InternalFT: true, ComputeSSD: true}
	case BG2:
		return Caps{Sampler: SampleOnDie, OutOfOrder: true, HWRouting: true, DirectGraph: true, InternalFT: true, ComputeSSD: true}
	}
	panic(fmt.Sprintf("platform: no caps for %v", k))
}
