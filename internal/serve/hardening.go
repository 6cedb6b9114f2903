package serve

import (
	"bytes"
	"context"
	"net/http"
)

// withTimeout bounds one request's handling at s.timeout: the handler runs
// against a buffered ResponseWriter on its own goroutine with a deadlined
// context; if it finishes in time the buffered response is replayed to the
// client, otherwise the client gets an immediate JSON 503 and the straggler's
// output is discarded when it eventually completes. This is
// http.TimeoutHandler's discipline with a JSON error body and a metrics
// counter. A timeout of zero disables the wrapper.
//
// Handlers that honor their request context (observe, which drops a batch
// whose deadline passed while it waited for the fitter) stop early; the rest
// run to completion against the discarded buffer, so a timeout never
// corrupts server state — it only stops the client's wait.
func (s *Server) withTimeout(h http.HandlerFunc) http.Handler {
	if s.timeout <= 0 {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.timeout)
		defer cancel()

		bw := &bufferedResponse{header: make(http.Header)}
		done := make(chan struct{})
		panicked := make(chan interface{}, 1)
		go func() {
			defer func() {
				if p := recover(); p != nil {
					panicked <- p
					return
				}
				close(done)
			}()
			h(bw, r.WithContext(ctx))
		}()

		select {
		case <-done:
			bw.flushTo(w)
		case p := <-panicked:
			panic(p)
		case <-ctx.Done():
			s.met.timeouts.Add(1)
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "request timed out"})
		}
	})
}

// bufferedResponse captures a handler's response so it can be replayed —
// or abandoned — after the timeout race is decided. Only the handler
// goroutine writes to it; flushTo runs strictly after that goroutine is done.
type bufferedResponse struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (b *bufferedResponse) Header() http.Header { return b.header }

func (b *bufferedResponse) WriteHeader(code int) {
	if b.code == 0 {
		b.code = code
	}
}

func (b *bufferedResponse) Write(p []byte) (int, error) {
	if b.code == 0 {
		b.code = http.StatusOK
	}
	return b.body.Write(p)
}

func (b *bufferedResponse) flushTo(w http.ResponseWriter) {
	dst := w.Header()
	for k, vs := range b.header {
		dst[k] = vs
	}
	if b.code == 0 {
		b.code = http.StatusOK
	}
	w.WriteHeader(b.code)
	_, _ = w.Write(b.body.Bytes())
}
