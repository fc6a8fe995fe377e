package metrics

import "net/http"

// Handler serves the registry in the Prometheus text exposition
// format at its mount point ("/", or the empty path http.StripPrefix
// leaves) and, when tr is non-nil, the retained flit-event ring as
// JSONL at "/trace"; every other path — "/trace" without a tracer
// included — answers 404. Both endpoints read under the registry
// lock, so they are safe while the simulation is stepping on another
// goroutine; the values reflect the last serial flush.
func Handler(reg *Registry, tr *Tracer) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		// A write error means the client went away mid-stream; all we
		// can do is stop writing.
		switch {
		case req.URL.Path == "/" || req.URL.Path == "":
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			_ = reg.WritePrometheus(w)
		case req.URL.Path == "/trace" && tr != nil:
			w.Header().Set("Content-Type", "application/jsonl; charset=utf-8")
			_ = tr.WriteJSONL(w)
		default:
			http.NotFound(w, req)
		}
	})
}
