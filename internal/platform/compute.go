package platform

import (
	"beacongnn/internal/accel"
	"beacongnn/internal/gnn"
	"beacongnn/internal/metrics"
	"beacongnn/internal/sim"
)

// gnnModel returns the task's compute description for this dataset.
func (s *System) gnnModel() gnn.Model {
	return gnn.Model{
		Hops:      s.cfg.GNN.Hops,
		Fanout:    s.cfg.GNN.Fanout,
		InputDim:  s.inst.Desc.FeatureDim,
		HiddenDim: s.cfg.GNN.HiddenDim,
	}
}

// weightsBytes returns the FP16 footprint of the model parameters the
// accelerator streams per batch.
func (s *System) weightsBytes() int {
	m := s.gnnModel()
	total := m.InputDim * m.HiddenDim
	for k := 1; k < m.Hops; k++ {
		total += m.HiddenDim * m.HiddenDim
	}
	return total * 2
}

// computeBatch runs batch i's GNN computation stage: aggregation on the
// vector array and GEMM updates on the systolic array, after staging
// features (from SSD DRAM for in-storage platforms, over PCIe to the
// discrete accelerator for host-centric ones).
func (s *System) computeBatch(i int, done func()) {
	model := s.gnnModel()
	w := model.BatchWorkload(s.cfg.GNN.BatchSize)
	if s.cfg.GNN.Training {
		w = model.TrainingWorkload(s.cfg.GNN.BatchSize)
	}
	featBytes := s.cfg.GNN.BatchSize * model.FeatureBytes()

	var eng *accel.Model
	var t sim.Time
	if s.caps.ComputeSSD {
		// SSD-grade accelerator: SRAM spills stream from SSD DRAM.
		eng = s.ssdAcc
		t = eng.TimeWithMemory(w, s.cfg.DRAM.Bandwidth)
	} else {
		// Server-scale accelerator with ample on-package memory
		// bandwidth; the capacity model rarely binds there.
		eng = s.tpu
		t = eng.Time(w)
	}
	s.meter.AccelMACs(w.MACs(), w.SRAMBytes())
	s.coll.AddPhase(metrics.PhaseAccel, t)

	run := func() { s.accelQ.Submit(t, done) }
	if s.caps.ComputeSSD {
		// Features and weights stream from SSD DRAM into accelerator SRAM.
		s.dramData(featBytes+s.weightsBytes(), run)
		return
	}
	// Host-centric: features cross PCIe to the discrete accelerator.
	s.pcieData(featBytes+s.weightsBytes(), run)
}
