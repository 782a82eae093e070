package sim

// Fabric models the PCIe/NVMe-oF interconnect of a multi-device
// cluster: every endpoint (device or coordinator) owns a width-1 egress
// port and a width-1 ingress port, each a bandwidth-limited Pipe, so a
// chatty sender and a hot receiver both queue independently — the
// store-and-forward shape of a switched fabric. The wire latency is
// charged once, on the egress leg.
//
// Like every service center in this package, a Fabric is owned by one
// single-threaded Kernel: byte counters need no synchronization and
// message completion order is deterministic.
type Fabric struct {
	egress  []*Pipe
	ingress []*Pipe
	sentBy  []uint64 // bytes accepted per source endpoint
	msgs    uint64
}

// NewFabric builds a fabric with the given per-port bandwidth
// (bytes/second) and per-message wire latency.
func NewFabric(k *Kernel, endpoints int, bytesPerSec float64, latency Time) *Fabric {
	if endpoints <= 0 {
		panic("sim: fabric needs at least one endpoint")
	}
	f := &Fabric{
		egress:  make([]*Pipe, endpoints),
		ingress: make([]*Pipe, endpoints),
		sentBy:  make([]uint64, endpoints),
	}
	for i := range f.egress {
		f.egress[i] = NewPipe(k, bytesPerSec, latency)
		f.ingress[i] = NewPipe(k, bytesPerSec, 0)
	}
	return f
}

// Send moves n bytes from src to dst and runs done when the message has
// cleared both ports. A loopback send (src == dst) completes without
// touching the fabric — co-resident traffic is free, which is exactly
// the asymmetry partitioning exists to exploit.
func (f *Fabric) Send(src, dst, n int, done func()) {
	if n < 0 {
		panic("sim: negative fabric message size")
	}
	if src == dst {
		done()
		return
	}
	f.msgs++
	f.sentBy[src] += uint64(n)
	in := f.ingress[dst]
	f.egress[src].Transfer(n, func() {
		in.Transfer(n, done)
	})
}

// BytesFrom returns the bytes endpoint i has pushed onto the fabric.
func (f *Fabric) BytesFrom(i int) uint64 { return f.sentBy[i] }

// BytesTotal returns all bytes moved across the fabric.
func (f *Fabric) BytesTotal() uint64 {
	var t uint64
	for _, b := range f.sentBy {
		t += b
	}
	return t
}

// Messages returns how many non-loopback sends the fabric accepted.
func (f *Fabric) Messages() uint64 { return f.msgs }

// OccupancyFor returns the single-port occupancy time for n bytes.
func (f *Fabric) OccupancyFor(n int) Time { return f.egress[0].OccupancyFor(n) }

// Quiesced reports whether every port has drained — true between
// batches and at end of run, a cheap conservation check.
func (f *Fabric) Quiesced() bool {
	for i := range f.egress {
		if b, q := f.egress[i].Occupancy(); b+q > 0 {
			return false
		}
		if b, q := f.ingress[i].Occupancy(); b+q > 0 {
			return false
		}
	}
	return true
}
