package serve

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"repro/internal/obs"
)

// Request correlation and access logging. Every route is wrapped in
// instrument, which (1) assigns the request a correlation ID — the caller's
// X-Ptucker-Request-Id when it is clean, a generated one otherwise — and
// echoes it on the response, (2) records the request's wall-clock duration
// in the per-endpoint histogram, (3) emits a Debug access-log line carrying
// endpoint, method, status, duration, and remote address, and (4) escalates
// the line to Warn with the same detail when the request ran past
// Options.SlowRequest.

// statusWriter captures the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

// instrument wraps h with the endpoint's observability envelope; see the
// file comment. endpoint must be one of histEndpoints.
func (s *Server) instrument(endpoint string, h http.Handler) http.Handler {
	hist := s.met.duration(endpoint)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		id := r.Header.Get(obs.RequestIDHeader)
		if !obs.CleanRequestID(id) {
			id = obs.NewRequestID()
		}
		w.Header().Set(obs.RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		d := time.Since(t0)
		hist.ObserveDuration(d)

		slow := s.slowReq > 0 && d >= s.slowReq
		level := slog.LevelDebug
		msg := "request"
		if slow {
			level, msg = slog.LevelWarn, "slow request"
		}
		if !s.log.Enabled(r.Context(), level) {
			return
		}
		status := sw.code
		if status == 0 {
			status = http.StatusOK
		}
		args := []interface{}{
			"request_id", id,
			"endpoint", endpoint,
			"method", r.Method,
			"status", status,
			"duration", d,
			"remote", r.RemoteAddr,
		}
		if slow {
			args = append(args, "slow_threshold", s.slowReq)
		}
		s.event(level, msg, args...)
	})
}

// event emits one structured log line with the server's identity attached:
// role ("standalone", "primary", or "follower"), replication epoch, and
// model generation. Every lifecycle event and access-log line goes through
// it so operators can filter one process's stream out of a fleet's.
func (s *Server) event(level slog.Level, msg string, args ...interface{}) {
	if !s.log.Enabled(context.Background(), level) {
		return
	}
	role := "standalone"
	switch {
	case s.isFollower():
		role = "follower"
	case s.repl.epoch != 0:
		role = "primary"
	}
	args = append(args, "role", role, "epoch", s.repl.epoch, "gen", s.repl.gen.Load())
	s.log.Log(context.Background(), level, msg, args...)
}
