package server

import (
	"fmt"
	"log/slog"
	"strings"
)

// levelName renders a slog level the way the control plane accepts it.
func levelName(l slog.Level) string {
	switch {
	case l < slog.LevelInfo:
		return "debug"
	case l < slog.LevelWarn:
		return "info"
	case l < slog.LevelError:
		return "warn"
	default:
		return "error"
	}
}

// ParseLevel maps a level name onto slog: "debug", "info", "warn" (or
// "warning") or "error", in any case. The daemon's -log-level flag and
// the control plane's log_level knob both read through it.
func ParseLevel(name string) (slog.Level, error) {
	switch strings.ToLower(name) {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	}
	return 0, fmt.Errorf("%w: unknown log level %q", ErrBadSpec, name)
}
