package core

import (
	"fmt"
	"io"

	"beacongnn/internal/platform"
	"beacongnn/internal/trace"
)

// RunTrace runs one request-traced simulation of a platform on a dataset
// and writes the spans as Chrome trace_event JSON to w (viewable in
// Perfetto or chrome://tracing). Traced runs attach the recorder to the
// system's resources directly, so they build their own System instead of
// going through the memoized engine; for a fixed config and seed the
// emitted JSON is byte-identical across runs.
func RunTrace(o *Options, platformName, datasetName string, w io.Writer) (*platform.Result, error) {
	o.fill()
	kind, err := platform.ByName(platformName)
	if err != nil {
		return nil, err
	}
	inst, err := o.instance(datasetName)
	if err != nil {
		return nil, err
	}
	s, err := platform.NewSystem(kind, o.Cfg, inst, 0)
	if err != nil {
		return nil, err
	}
	s.BindContext(o.context())
	rec := trace.NewRecorder()
	s.SetTracer(rec)
	res, err := s.Run(o.Batches)
	if err != nil {
		return nil, err
	}
	if err := rec.WriteChrome(w); err != nil {
		return nil, fmt.Errorf("core: writing trace: %w", err)
	}
	return res, nil
}
