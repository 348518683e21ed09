package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Level is an event's severity. The program emits only these two, and
// every one it emits is written.
type Level uint8

// Severity levels, least to most severe.
const (
	LevelInfo Level = iota
	LevelWarn
)

// String names the level the way the JSON lines spell it.
func (l Level) String() string {
	switch l {
	case LevelInfo:
		return "info"
	case LevelWarn:
		return "warn"
	default:
		return "level(" + strconv.Itoa(int(l)) + ")"
	}
}

// EventLog emits structured events as JSON lines: one object per line
// with "ts", "level", "event", then the caller's key/value fields in
// call order (never map order — output is deterministic given a
// deterministic clock).
//
// The clock is injectable so tests can pin timestamps; operational
// deployments use NewEventLog, whose wall-clock default is the only
// wall-clock read in the package.
//
// All methods are safe on a nil receiver (no-ops), so instrumented code
// can emit unconditionally.
type EventLog struct {
	mu    sync.Mutex
	w     io.Writer
	clock func() time.Time
	buf   []byte // reused line buffer, guarded by mu
}

// NewEventLog writes events to w, stamped with the wall clock.
func NewEventLog(w io.Writer) *EventLog {
	return newEventLogClock(w, time.Now)
}

// newEventLogClock is NewEventLog with an explicit time source.
func newEventLogClock(w io.Writer, clock func() time.Time) *EventLog {
	return &EventLog{w: w, clock: clock}
}

// Emit writes one event with alternating key/value fields. A trailing
// key without a value is rendered with null.
func (l *EventLog) Emit(lvl Level, event string, kv ...any) {
	if l == nil || l.w == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"ts":"`...)
	b = l.clock().UTC().AppendFormat(b, time.RFC3339Nano)
	b = append(b, `","level":"`...)
	b = append(b, lvl.String()...)
	b = append(b, `","event":`...)
	b = appendJSONString(b, event)
	for i := 0; i < len(kv); i += 2 {
		key, ok := kv[i].(string)
		if !ok {
			key = fmt.Sprint(kv[i])
		}
		b = append(b, ',')
		b = appendJSONString(b, key)
		b = append(b, ':')
		if i+1 < len(kv) {
			b = appendJSONValue(b, kv[i+1])
		} else {
			b = append(b, "null"...)
		}
	}
	b = append(b, '}', '\n')
	l.buf = b
	_, _ = l.w.Write(b)
}

// Info emits at LevelInfo.
func (l *EventLog) Info(event string, kv ...any) { l.Emit(LevelInfo, event, kv...) }

// Warn emits at LevelWarn.
func (l *EventLog) Warn(event string, kv ...any) { l.Emit(LevelWarn, event, kv...) }

// appendJSONValue renders one field value. Strings, booleans, integers,
// floats, durations, errors, and Stringers are rendered natively;
// anything else falls back to fmt formatting inside a JSON string.
func appendJSONValue(b []byte, v any) []byte {
	switch v := v.(type) {
	case nil:
		return append(b, "null"...)
	case string:
		return appendJSONString(b, v)
	case bool:
		return strconv.AppendBool(b, v)
	case int:
		return strconv.AppendInt(b, int64(v), 10)
	case int64:
		return strconv.AppendInt(b, v, 10)
	case uint64:
		return strconv.AppendUint(b, v, 10)
	case uint:
		return strconv.AppendUint(b, uint64(v), 10)
	case float64:
		return strconv.AppendFloat(b, v, 'g', -1, 64)
	case time.Duration:
		return appendJSONString(b, v.String())
	case error:
		return appendJSONString(b, v.Error())
	case fmt.Stringer:
		return appendJSONString(b, v.String())
	default:
		return appendJSONString(b, fmt.Sprint(v))
	}
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string literal, escaping quotes,
// backslashes, and control bytes. Non-ASCII bytes pass through — the
// writer's encoding is the caller's business and event names are ASCII.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			b = append(b, '\\', c)
		case c >= 0x20:
			b = append(b, c)
		case c == '\n':
			b = append(b, '\\', 'n')
		case c == '\t':
			b = append(b, '\\', 't')
		case c == '\r':
			b = append(b, '\\', 'r')
		default:
			b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
		}
	}
	return append(b, '"')
}
