package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// errorCode is the machine-readable error class of the daemon's uniform
// error envelope. Every failing route answers
//
//	{"error": {"code": "<code>", "message": "<human text>"}}
//
// with the HTTP status derived from the code by httpStatus — the single
// place status mapping lives. The codes are part of the public API and
// documented in docs/ENGINE.md.
type errorCode string

const (
	// codeBadRequest: the request body or parameters could not be parsed.
	codeBadRequest errorCode = "bad_request"
	// codeInvalidArgument: the request parsed but describes an invalid
	// scenario or update (semantic validation failed).
	codeInvalidArgument errorCode = "invalid_argument"
	// codeNotFound: no scenario with the requested id.
	codeNotFound errorCode = "not_found"
	// codeConflict: a scenario with the requested id already exists.
	codeConflict errorCode = "conflict"
	// codeInternal: the engine failed while processing a valid request.
	codeInternal errorCode = "internal"
	// codeUnavailable: the request is valid but the degraded fabric cannot
	// satisfy it (e.g. a fault transition that leaves no feasible
	// placement). Retry after healing capacity.
	codeUnavailable errorCode = "unavailable"
	// codeResourceExhausted: the scenario's command mailbox is full —
	// ingest is outrunning the shard's run loop. The response carries a
	// Retry-After header; back off and resend.
	codeResourceExhausted errorCode = "resource_exhausted"
)

// httpStatus maps an error code to its HTTP status. Unknown codes are
// treated as internal errors rather than guessed at.
func httpStatus(c errorCode) int {
	switch c {
	case codeBadRequest:
		return http.StatusBadRequest
	case codeInvalidArgument:
		return http.StatusUnprocessableEntity
	case codeNotFound:
		return http.StatusNotFound
	case codeConflict:
		return http.StatusConflict
	case codeUnavailable:
		return http.StatusServiceUnavailable
	case codeResourceExhausted:
		return http.StatusTooManyRequests
	default:
		return http.StatusInternalServerError
	}
}

// apiError is the envelope payload.
type apiError struct {
	Code    errorCode `json:"code"`
	Message string    `json:"message"`
}

// errorEnvelope is the uniform error body.
type errorEnvelope struct {
	Error apiError `json:"error"`
}

// writeJSON encodes v before it writes anything, so a value JSON cannot
// carry (a non-finite float) answers 500 internal instead of a status
// line with an empty body behind it.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		writeError(w, codeInternal, "response not encodable: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

// writeError emits the uniform error envelope for code.
func writeError(w http.ResponseWriter, code errorCode, format string, args ...any) {
	writeJSON(w, httpStatus(code), errorEnvelope{Error: apiError{
		Code:    code,
		Message: fmt.Sprintf(format, args...),
	}})
}
