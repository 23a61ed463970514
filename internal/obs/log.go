package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
)

// requestIDKey keys the request id WithRequestID threads through contexts.
type requestIDKey struct{}

// WithRequestID returns a context carrying a request id. Every log record
// emitted through a logger built by NewLogger with that context attaches it
// as the request_id attribute — one grep (or jq filter) follows a request
// across layers.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, id)
}

// RequestIDFrom extracts the request id, if any.
func RequestIDFrom(ctx context.Context) (string, bool) {
	id, ok := ctx.Value(requestIDKey{}).(string)
	return id, ok
}

// ValidRequestID reports whether s is acceptable as a caller-supplied
// X-Request-ID: 1–128 characters from [0-9A-Za-z._-]. Anything else — empty,
// oversized, or carrying header-hostile bytes — is rejected and the server
// generates its own id instead.
func ValidRequestID(s string) bool {
	if len(s) == 0 || len(s) > 128 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= '0' && c <= '9', c >= 'A' && c <= 'Z', c >= 'a' && c <= 'z',
			c == '-', c == '.', c == '_':
		default:
			return false
		}
	}
	return true
}

// ctxHandler decorates an slog.Handler with context-carried attributes.
type ctxHandler struct{ slog.Handler }

func (h ctxHandler) Handle(ctx context.Context, r slog.Record) error {
	if id, ok := RequestIDFrom(ctx); ok {
		r.AddAttrs(slog.String("request_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h ctxHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return ctxHandler{h.Handler.WithAttrs(attrs)}
}

func (h ctxHandler) WithGroup(name string) slog.Handler {
	return ctxHandler{h.Handler.WithGroup(name)}
}

// ParseLevel maps a -log-level flag value onto an slog level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(s) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("obs: unknown log level %q (want debug, info, warn or error)", s)
}

// NewLogger builds a structured logger writing to w. format is "json"
// (machine-readable, the operational default) or "text" (human-readable
// key=value). The handler is context-aware: records carry request_id when
// the logging context has one.
func NewLogger(w io.Writer, level slog.Level, format string) (*slog.Logger, error) {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "json", "":
		h = slog.NewJSONHandler(w, opts)
	case "text":
		h = slog.NewTextHandler(w, opts)
	default:
		return nil, fmt.Errorf("obs: unknown log format %q (want json or text)", format)
	}
	return slog.New(ctxHandler{h}), nil
}
