// Audit ring: a fixed-capacity lock-free ring of the most recent
// structured audit records, captured via a slog.Handler that tees into
// the ring while forwarding to the configured sink (a JSON file,
// stderr). The audit log is the durable stream; the ring is the
// queryable recent history the /debug/timeline endpoint joins against
// spans and flight events on the shared correlation EventID — without
// re-parsing log files.
package telemetry

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
)

// AuditRecord is one captured audit decision, flattened for joining:
// Kind is the record's "event" attribute (install, negotiate, config,
// quarantine, evict, uninstall), Owner its "owner", Event its
// "event_id" correlation EventID; everything else lands in Attrs as
// rendered strings.
type AuditRecord struct {
	Seq           uint64            `json:"seq"`
	TimeUnixNanos int64             `json:"time_unix_ns"`
	Level         string            `json:"level"`
	Msg           string            `json:"msg"`
	Kind          string            `json:"kind,omitempty"`
	Owner         string            `json:"owner,omitempty"`
	Event         uint64            `json:"event,omitempty"`
	Attrs         map[string]string `json:"attrs,omitempty"`
}

// DefaultAuditRingCapacity is the ring size used when capacity <= 0.
const DefaultAuditRingCapacity = 1024

// AuditRing is the record ring (ring.go): appends never block, and
// when full the oldest records are overwritten. A nil *AuditRing is a
// valid no-op sink.
type AuditRing struct {
	ring[AuditRecord]
}

// NewAuditRing builds a ring holding up to capacity records.
func NewAuditRing(capacity int) *AuditRing {
	r := &AuditRing{}
	r.init(capacity, DefaultAuditRingCapacity)
	return r
}

// add appends one record, overwriting the oldest when full.
func (r *AuditRing) add(rec *AuditRecord) {
	if r == nil {
		return
	}
	r.ring.add(*rec)
}

// Appended returns the total number of records ever captured.
func (r *AuditRing) Appended() int64 {
	if r == nil {
		return 0
	}
	return r.appended()
}

// Records snapshots the ring's current contents as a consistent cut
// (see ring.snapshot), oldest first.
func (r *AuditRing) Records() []AuditRecord {
	if r == nil {
		return nil
	}
	_, out := r.snapshot(func(rec *AuditRecord, seq uint64) { rec.Seq = seq })
	return out
}

// WriteJSONL writes the ring's records as JSON-lines, oldest first.
func (r *AuditRing) WriteJSONL(w io.Writer) error { return writeJSONL(w, r.Records()) }

// ReadAuditJSONL decodes a JSON-lines audit-ring export (the inverse
// of WriteJSONL); blank lines are skipped.
func ReadAuditJSONL(rd io.Reader) ([]AuditRecord, error) {
	var out []AuditRecord
	dec := json.NewDecoder(rd)
	for dec.More() {
		var rec AuditRecord
		if err := dec.Decode(&rec); err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Handler returns a slog.Handler that captures every record into the
// ring and then forwards to next (nil next = capture only). Wire it
// between the kernel's audit logger and its durable sink.
func (r *AuditRing) Handler(next slog.Handler) slog.Handler {
	return &auditHandler{ring: r, next: next}
}

// auditHandler tees slog records into an AuditRing. WithAttrs state is
// carried so logger.With(...).Info(...) records keep their attributes.
type auditHandler struct {
	ring   *AuditRing
	next   slog.Handler
	prefix []slog.Attr // attrs accumulated via WithAttrs, group-qualified
	groups []string    // open groups from WithGroup
}

func (h *auditHandler) Enabled(ctx context.Context, lvl slog.Level) bool {
	if h.next != nil {
		return h.next.Enabled(ctx, lvl)
	}
	return lvl >= slog.LevelInfo
}

func (h *auditHandler) Handle(ctx context.Context, rec slog.Record) error {
	ar := &AuditRecord{
		TimeUnixNanos: rec.Time.UnixNano(),
		Level:         rec.Level.String(),
		Msg:           rec.Message,
		Attrs:         map[string]string{},
	}
	for _, a := range h.prefix {
		flattenAttr(ar, "", a)
	}
	prefix := ""
	for _, g := range h.groups {
		prefix += g + "."
	}
	rec.Attrs(func(a slog.Attr) bool {
		flattenAttr(ar, prefix, a)
		return true
	})
	h.ring.add(ar)
	if h.next != nil {
		return h.next.Handle(ctx, rec)
	}
	return nil
}

// flattenAttr folds one attr into the record, recursing into groups
// and hoisting the well-known join keys.
func flattenAttr(ar *AuditRecord, prefix string, a slog.Attr) {
	v := a.Value.Resolve()
	if v.Kind() == slog.KindGroup {
		p := prefix
		if a.Key != "" {
			p = prefix + a.Key + "."
		}
		for _, ga := range v.Group() {
			flattenAttr(ar, p, ga)
		}
		return
	}
	key := prefix + a.Key
	switch key {
	case "event":
		ar.Kind = v.String()
	case "owner":
		ar.Owner = v.String()
	case "event_id":
		if v.Kind() == slog.KindUint64 {
			ar.Event = v.Uint64()
		} else if v.Kind() == slog.KindInt64 {
			ar.Event = uint64(v.Int64())
		}
	default:
		ar.Attrs[key] = v.String()
	}
}

func (h *auditHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	if len(attrs) == 0 {
		return h
	}
	nh := &auditHandler{ring: h.ring, groups: h.groups}
	prefix := ""
	for _, g := range h.groups {
		prefix += g + "."
	}
	nh.prefix = append(append([]slog.Attr{}, h.prefix...), qualify(prefix, attrs)...)
	if h.next != nil {
		nh.next = h.next.WithAttrs(attrs)
	}
	return nh
}

// qualify rewrites attrs under the current group prefix so the
// flattened keys match what Handle produces for inline attrs.
func qualify(prefix string, attrs []slog.Attr) []slog.Attr {
	if prefix == "" {
		return attrs
	}
	out := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		out[i] = slog.Attr{Key: prefix + a.Key, Value: a.Value}
	}
	return out
}

func (h *auditHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := &auditHandler{ring: h.ring, prefix: h.prefix}
	nh.groups = append(append([]string{}, h.groups...), name)
	if h.next != nil {
		nh.next = h.next.WithGroup(name)
	}
	return nh
}
