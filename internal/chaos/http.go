package chaos

import (
	"hash/fnv"
	"net/http"
	"time"
)

// truncWriter forwards at most limit body bytes, then reports how much
// it swallowed. Headers pass through untouched — truncation models a
// connection dying mid-response, not a corrupted status line.
type truncWriter struct {
	http.ResponseWriter
	remaining int
	truncated bool
}

func (t *truncWriter) Write(p []byte) (int, error) {
	if t.remaining <= 0 {
		t.truncated = true
		return len(p), nil // swallow; report success so the handler completes
	}
	if len(p) > t.remaining {
		n, err := t.ResponseWriter.Write(p[:t.remaining])
		t.remaining = 0
		t.truncated = true
		if err != nil {
			return n, err
		}
		return len(p), nil
	}
	n, err := t.ResponseWriter.Write(p)
	t.remaining -= n
	return n, err
}

// truncAfter is how many response bytes survive an injected
// truncation: enough for clients to see a plausible partial JSON body,
// small enough that any real response is visibly cut.
const truncAfter = 64

// WrapHTTP returns a middleware injecting the HTTP-boundary faults:
// request drops (503 with an X-Chaos-Injected marker, before the
// handler runs), latency spikes (injected sleep before handling), and
// truncated response bodies. Decisions key off the request path+query,
// so the schedule is a property of the request stream, not of handler
// timing. onInject, if non-nil, is called with the fault class name —
// the daemon uses it to count injections in its metrics registry.
func (in *Injector) WrapHTTP(next http.Handler, onInject func(class string)) http.Handler {
	if in == nil || !in.cfg.Active() {
		return next
	}
	note := func(class string) {
		if onInject != nil {
			onInject(class)
		}
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if in.disarmed.Load() {
			next.ServeHTTP(w, r)
			return
		}
		h := fnv.New64a()
		_, _ = h.Write([]byte(r.URL.RequestURI()))
		key := h.Sum64()
		if in.cfg.HTTPDropRate > 0 && in.draw(siteHTTPDrop, key) < in.cfg.HTTPDropRate {
			in.stats.HTTPDrops.Add(1)
			note("drop")
			w.Header().Set("X-Chaos-Injected", "drop")
			http.Error(w, "chaos: injected request drop", http.StatusServiceUnavailable)
			return
		}
		if in.cfg.HTTPLatencyRate > 0 && in.draw(siteHTTPLatency, key) < in.cfg.HTTPLatencyRate {
			in.stats.HTTPDelays.Add(1)
			note("latency")
			time.Sleep(in.cfg.HTTPLatency)
		}
		if in.cfg.HTTPTruncRate > 0 && in.draw(siteHTTPTrunc, key) < in.cfg.HTTPTruncRate {
			in.stats.HTTPTruncs.Add(1)
			note("truncate")
			w.Header().Set("X-Chaos-Injected", "truncate")
			tw := &truncWriter{ResponseWriter: w, remaining: truncAfter}
			next.ServeHTTP(tw, r)
			return
		}
		next.ServeHTTP(w, r)
	})
}
