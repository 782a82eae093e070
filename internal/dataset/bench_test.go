package dataset

import "testing"

// BenchmarkMaterialize measures one instance build at the default
// simulation scale: graph generation plus the DirectGraph build, the
// work every instance-cache miss pays.
func BenchmarkMaterialize(b *testing.B) {
	for _, name := range []string{"amazon", "reddit", "OGBN"} {
		d, err := ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Materialize(d, 20_000, 4096, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
