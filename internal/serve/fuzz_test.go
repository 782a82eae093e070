package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"beacongnn/internal/exp"
)

// addCorpus seeds f with the committed bodies in testdata/<dir>, in
// file-name order.
func addCorpus(f *testing.F, dir string) {
	entries, err := os.ReadDir(filepath.Join("testdata", dir))
	if err != nil {
		f.Fatal(err)
	}
	for _, e := range entries { // ReadDir sorts by file name
		body, err := os.ReadFile(filepath.Join("testdata", dir, e.Name()))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
}

// checkRejection fails t unless err is a badRequestError (a 400).
func checkRejection(t *testing.T, err error) {
	t.Helper()
	if !errors.As(err, new(badRequestError)) {
		t.Fatalf("rejection is not a bad request: %T %v", err, err)
	}
}

// FuzzSimRequest hardens the /v1/simulate request path from body bytes
// to a runnable job: any body is either rejected as a badRequestError
// (a 400) or yields a job whose config validates, whose size lies
// within the server's limits, whose key carries its config's digest,
// whose timeout is positive and at most MaxTimeout, and whose body
// json.Unmarshal accepts too. Each body is decoded twice on one shared
// server, so the second decode may come from its body index, and once
// on a fresh server: all three give the same job or the same error. The
// corpus is the committed bodies in testdata/simrequest.
func FuzzSimRequest(f *testing.F) {
	addCorpus(f, "simrequest")
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		job, err := s.decodeSim(bytes.NewReader(body))
		again, errAgain := s.decodeSim(bytes.NewReader(body))
		fresh, errFresh := New(Config{Workers: 1}).decodeSim(bytes.NewReader(body))
		if err != nil {
			checkRejection(t, err)
			for _, e := range []error{errAgain, errFresh} {
				if e == nil || e.Error() != err.Error() {
					t.Fatalf("rejection %q, then %v", err, e)
				}
			}
			return
		}
		if errAgain != nil || errFresh != nil || !reflect.DeepEqual(again, job) || !reflect.DeepEqual(fresh, job) {
			t.Fatalf("accepted job %+v, then %+v (%v) and %+v (%v)", job, again, errAgain, fresh, errFresh)
		}
		var req SimRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		if err := job.cfg.Validate(); err != nil {
			t.Fatalf("accepted job has an invalid config: %v", err)
		}
		if k := job.key; k.Nodes < 1 || k.Nodes > s.cfg.MaxNodes || k.Batches < 1 || k.Batches > s.cfg.MaxBatches {
			t.Fatalf("accepted job size %d nodes × %d batches outside the server limits", k.Nodes, k.Batches)
		}
		if job.key.Digest != exp.ConfigDigest(&job.cfg) {
			t.Fatalf("job key digest %x, config digest %x", job.key.Digest, exp.ConfigDigest(&job.cfg))
		}
		if job.timeout <= 0 || job.timeout > s.cfg.MaxTimeout {
			t.Fatalf("timeout %v outside (0, %v]", job.timeout, s.cfg.MaxTimeout)
		}
	})
}

// FuzzExpRequest does the same for /v1/experiment: any body is either a
// badRequestError or a job naming a registered experiment, with nodes
// and batches in [0, limit] (0 takes the experiment's default) and a
// timeout in (0, MaxTimeout]. The corpus is the committed bodies in
// testdata/exprequest.
func FuzzExpRequest(f *testing.F) {
	addCorpus(f, "exprequest")
	s := New(Config{Workers: 1})
	f.Fuzz(func(t *testing.T, body []byte) {
		job, err := s.decodeExp(bytes.NewReader(body))
		if err != nil {
			checkRejection(t, err)
			return
		}
		var req ExpRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		if job.exp.ID != req.ID || job.exp.Run == nil {
			t.Fatalf("id %q resolved to experiment %q", req.ID, job.exp.ID)
		}
		if job.nodes < 0 || job.nodes > s.cfg.MaxNodes || job.batches < 0 || job.batches > s.cfg.MaxBatches {
			t.Fatalf("accepted job size %d nodes × %d batches outside the server limits", job.nodes, job.batches)
		}
		if job.timeout <= 0 || job.timeout > s.cfg.MaxTimeout {
			t.Fatalf("timeout_ms %d resolved to %v, outside (0, %v]", req.TimeoutMS, job.timeout, s.cfg.MaxTimeout)
		}
	})
}
