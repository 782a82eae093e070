package platform

import (
	"testing"

	"beacongnn/internal/config"
	"beacongnn/internal/dataset"
)

// BenchmarkEventLoop isolates the event-loop layer of a cold simulate
// request: one System.Run of 4 batches on a warm 10k-node reddit
// instance, with instance materialization and NewSystem outside the
// timer. CC is the host-driven page path, BG-DG the firmware-driven
// page path with coalesced secondary reads, BG-SP the
// firmware-scheduled die-sampler path and BG-2 the router-driven
// die-sampler path.
func BenchmarkEventLoop(b *testing.B) {
	d, err := dataset.ByName("reddit")
	if err != nil {
		b.Fatal(err)
	}
	cfg := config.Default()
	inst, err := dataset.Materialize(d, 10_000, cfg.Flash.PageSize, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []Kind{CC, BGDG, BGSP, BG2} {
		b.Run(k.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := NewSystem(k, cfg, inst, 1024)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := s.Run(4); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
