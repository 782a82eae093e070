package serve

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzSimRequest hardens the /v1/simulate request path from body bytes
// to a runnable job: any body is either rejected as a badRequestError
// (a 400) or yields a job whose config validates, whose size lies
// within the server's limits, and whose timeout is positive and at most
// MaxTimeout. The corpus is the committed bodies in
// testdata/simrequest, added in file-name order.
func FuzzSimRequest(f *testing.F) {
	entries, err := os.ReadDir(filepath.Join("testdata", "simrequest"))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries { // ReadDir sorts by file name
		body, err := os.ReadFile(filepath.Join("testdata", "simrequest", e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		var req SimRequest
		err := decodeJSON(bytes.NewReader(body), &req)
		var job *simJob
		if err == nil {
			job, err = s.validate(&req)
		}
		if err != nil {
			if !errors.As(err, new(badRequestError)) {
				t.Fatalf("rejection is not a bad request: %T %v", err, err)
			}
			return
		}
		if err := job.cfg.Validate(); err != nil {
			t.Fatalf("accepted job has an invalid config: %v", err)
		}
		if job.nodes < 1 || job.nodes > s.cfg.MaxNodes || job.batches < 1 || job.batches > s.cfg.MaxBatches {
			t.Fatalf("accepted job size %d nodes × %d batches outside the server limits", job.nodes, job.batches)
		}
		if job.timeout <= 0 || job.timeout > s.cfg.MaxTimeout {
			t.Fatalf("timeout_ms %d resolved to %v, outside (0, %v]", req.TimeoutMS, job.timeout, s.cfg.MaxTimeout)
		}
	})
}
