package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime/debug"
	"strconv"
	"time"
)

// ErrorCode is the machine-readable class of an API error. Clients branch on
// the code, never on message text; every non-2xx response from the service
// carries exactly one.
type ErrorCode string

const (
	// CodeBadRequest — the request itself is malformed or inconsistent.
	CodeBadRequest ErrorCode = "bad_request"
	// CodeUnknownGraph — the named graph is not registered.
	CodeUnknownGraph ErrorCode = "unknown_graph"
	// CodeQuarantined — the graph exists but its backing file is failing to
	// load; retry after the quarantine backoff.
	CodeQuarantined ErrorCode = "quarantined"
	// CodeOverloaded — shed by admission control; retry after backoff.
	CodeOverloaded ErrorCode = "overloaded"
	// CodeDraining — the server is shutting down and no longer admits work.
	CodeDraining ErrorCode = "draining"
	// CodeDeadline — the request deadline expired before the answer was ready.
	CodeDeadline ErrorCode = "deadline_exceeded"
	// CodeNotFound — the resource (job, endpoint) does not exist.
	CodeNotFound ErrorCode = "not_found"
	// CodeConflict — the request conflicts with existing state.
	CodeConflict ErrorCode = "conflict"
	// CodeInternal — an unexpected server-side failure.
	CodeInternal ErrorCode = "internal"
	// CodePanic — a handler panicked; the panic was recovered and counted.
	CodePanic ErrorCode = "internal_panic"
)

// APIError is the wire shape of every error the service returns, wrapped in
// an envelope: {"error": {"code": ..., "message": ..., "retry_after_ms": ...}}.
// RetryAfterMS is present only on retryable rejections (overloaded,
// quarantined, draining) and mirrors the Retry-After header.
type APIError struct {
	Code         ErrorCode `json:"code"`
	Message      string    `json:"message"`
	RetryAfterMS int64     `json:"retry_after_ms,omitempty"`
}

// Error implements error so the client package can surface APIError directly.
func (e *APIError) Error() string {
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

type errorEnvelope struct {
	Error APIError `json:"error"`
}

// writeError emits the typed error envelope. A non-zero retryAfter also sets
// the Retry-After header (whole seconds, rounded up, per RFC 9110).
func writeError(w http.ResponseWriter, status int, code ErrorCode, msg string, retryAfter time.Duration) {
	w.Header().Set("Content-Type", "application/json")
	var ms int64
	if retryAfter > 0 {
		ms = retryAfter.Milliseconds()
		secs := (retryAfter + time.Second - 1) / time.Second
		w.Header().Set("Retry-After", strconv.FormatInt(int64(secs), 10))
	}
	w.WriteHeader(status)
	// The envelope always encodes, so an error here is a failed write, which
	// the response tap counts.
	_ = json.NewEncoder(w).Encode(errorEnvelope{Error: APIError{Code: code, Message: msg, RetryAfterMS: ms}})
}

// responseTap wraps a ResponseWriter to record whether the handler committed
// a response, so panic recovery knows if it may still write an envelope, and
// whether a body write failed (typically the client went away mid-response).
type responseTap struct {
	http.ResponseWriter
	wrote  bool
	failed bool
}

func (t *responseTap) WriteHeader(status int) {
	t.wrote = true
	t.ResponseWriter.WriteHeader(status)
}

func (t *responseTap) Write(p []byte) (int, error) {
	t.wrote = true
	n, err := t.ResponseWriter.Write(p)
	if err != nil {
		t.failed = true
	}
	return n, err
}

// tapResponses runs every request through a responseTap. It converts handler
// panics into 500 internal_panic envelopes instead of killing the connection
// (and, without http.Server's own recovery, the process for non-HTTP
// callers); onPanic observes every recovered value for counting, with the
// stack, so operators see it once, not per client. A request whose response
// body failed to write is reported once to onWriteFailure: by then the
// status is sent, so counting it is all the server can do.
func tapResponses(next http.Handler, onPanic func(v any, stack []byte), onWriteFailure func()) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tap := &responseTap{ResponseWriter: w}
		defer func() {
			if v := recover(); v != nil {
				onPanic(v, debug.Stack())
				if !tap.wrote {
					writeError(tap, http.StatusInternalServerError, CodePanic,
						fmt.Sprintf("recovered panic: %v", v), 0)
				}
			}
			if tap.failed {
				onWriteFailure()
			}
		}()
		next.ServeHTTP(tap, r)
	})
}
