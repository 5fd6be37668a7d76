package eventstore

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"path/filepath"

	"repro/internal/ids"
	"repro/internal/wal"
)

// Retroactive re-attribution. Publishing a rule after ingest can change what
// history *should* say: a session that matched nothing (or matched a
// later-published rule) may now have an earlier-published match. The shard
// logs stay append-only and immutable — instead, re-labels land in a
// separate amendment log, and every read funnel (Snapshot here, the timeline
// View in internal/timeline) resolves amendments over the raw events.
//
// amend.log is a wal.Log like the shards but has its own durability
// contract: every AppendAmendments fsyncs before returning. Amendments are
// produced by an idempotent rescan that restarts from scratch after a crash,
// so a lost tail costs re-derivation, never correctness — there is no
// commit-journal coupling to get wrong.
//
// An Amendment reassigns one session's label. Sessions are identified by
// (start time, source endpoint, destination endpoint) — the identity the
// matcher works from — and the newest ruleset generation wins when several
// amendments touch one session. Orig fields always describe the *ingest
// time* label (what the raw logs say), not the previous amendment, so
// resolution needs no ordering beyond max-generation.

// Amendment re-labels one session in the raw event history.
type Amendment struct {
	// Event is the session's new label: the same session key fields
	// (Time/Src/Dst) as the original event with the re-attributed
	// SID/Published/CVE/Msg. Event.SID == 0 is a retraction: the session no
	// longer matches any rule and its event disappears from resolved views.
	Event ids.Event
	// OrigSID and OrigCVE are the session's ingest-time label. OrigSID == 0
	// means the session matched nothing at ingest (it has no raw event; the
	// amendment adds one).
	OrigSID int
	OrigCVE string
	// Gen is the ruleset generation that produced this amendment. Higher
	// generations supersede lower ones for the same session.
	Gen uint64
}

var amendMagic = [8]byte{'E', 'V', 'A', 'M', 'D', 0x01, 0x01, '\n'}

// sessionKey identifies a session across raw events and amendments.
type sessionKey struct {
	unixNano int64
	src, dst netip.AddrPort
}

func keyOfEvent(ev *ids.Event) sessionKey {
	return sessionKey{
		unixNano: ev.Time.UnixNano(),
		src:      netip.AddrPortFrom(ev.Src.Addr, ev.Src.Port),
		dst:      netip.AddrPortFrom(ev.Dst.Addr, ev.Dst.Port),
	}
}

// SessionKeyOf returns a comparable session identity for ev, shared by the
// store's amendment resolution and the timeline's overlay.
func SessionKeyOf(ev *ids.Event) any { return keyOfEvent(ev) }

// EncodeAmendment appends a's encoding to buf: the event, then u32 OrigSID,
// string16 OrigCVE and u64 Gen — the record amend.log frames on disk,
// exported so the replica protocol can ship amendment records verbatim.
func EncodeAmendment(buf []byte, a *Amendment) []byte {
	buf = EncodeEvent(buf, &a.Event)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(a.OrigSID))
	buf = wal.AppendString16(buf, a.OrigCVE)
	return binary.LittleEndian.AppendUint64(buf, a.Gen)
}

// DecodeAmendment decodes one EncodeAmendment payload.
func DecodeAmendment(b []byte) (Amendment, error) {
	c := wal.NewCursor(b)
	var a Amendment
	readEvent(&c, &a.Event, nil)
	a.OrigSID = int(c.U32())
	a.OrigCVE = c.String16()
	a.Gen = c.U64()
	if err := c.Finish("amendment"); err != nil {
		return Amendment{}, err
	}
	return a, nil
}

// openAmendLog opens (creating if needed) dir/amend.log and recovers its
// intact records.
func (s *Store) openAmendLog() error {
	var amends []Amendment
	log, err := wal.Open(s.fs, filepath.Join(s.dir, "amend.log"), amendMagic, maxRecordLen, func(payload []byte) error {
		a, err := DecodeAmendment(payload)
		if err != nil {
			return err
		}
		amends = append(amends, a)
		return nil
	})
	if err != nil {
		return fmt.Errorf("eventstore: amendment log: %w", err)
	}
	s.amendLog = log
	s.amends.Store(&amends)
	if len(amends) > 0 {
		s.gen.Add(1)
	}
	return nil
}

// AppendAmendments durably appends re-attribution records: the write is
// fsynced before the call returns and the amendments are visible to the next
// Snapshot (the store generation bumps). Safe to call concurrently with
// appends and snapshots.
func (s *Store) AppendAmendments(as []Amendment) error {
	if len(as) == 0 {
		return nil
	}
	var buf []byte
	var payload []byte
	for i := range as {
		payload = EncodeAmendment(payload[:0], &as[i])
		buf = wal.AppendFrame(buf, payload)
	}
	s.amendMu.Lock()
	defer s.amendMu.Unlock()
	if err := s.amendLog.AppendSync(buf); err != nil {
		return fmt.Errorf("eventstore: appending amendments: %w", err)
	}
	cur := *s.amends.Load()
	next := append(cur, as...)
	s.amends.Store(&next)
	s.gen.Add(1)
	return nil
}

// Amendments returns every recorded amendment in append order. The slice is
// an immutable prefix; callers may hold it indefinitely.
func (s *Store) Amendments() []Amendment {
	a := *s.amends.Load()
	return a[:len(a):len(a)]
}

// ResolveAmendments returns the per-session winning amendment set: for each
// amended session, the amendment from the highest ruleset generation. The
// map key is SessionKeyOf of the amendment's Event.
func ResolveAmendments(as []Amendment) map[any]Amendment {
	if len(as) == 0 {
		return nil
	}
	out := make(map[any]Amendment, len(as))
	for _, a := range as {
		k := keyOfEvent(&a.Event)
		if cur, ok := out[k]; !ok || a.Gen > cur.Gen {
			out[k] = a
		}
	}
	return out
}

// applyAmendments resolves amendments over a sorted raw event slice: amended
// sessions take their newest re-label (or vanish, for retractions), and
// amendments for sessions with no raw event add one. The result is in
// canonical order. With no amendments the input is returned untouched.
func applyAmendments(events []ids.Event, as []Amendment) []ids.Event {
	if len(as) == 0 {
		return events
	}
	wins := make(map[sessionKey]Amendment, len(as))
	for _, a := range as {
		k := keyOfEvent(&a.Event)
		if cur, ok := wins[k]; !ok || a.Gen > cur.Gen {
			wins[k] = a
		}
	}
	out := make([]ids.Event, 0, len(events)+len(wins))
	for i := range events {
		k := keyOfEvent(&events[i])
		a, ok := wins[k]
		if !ok {
			out = append(out, events[i])
			continue
		}
		delete(wins, k)
		if a.Event.SID == 0 {
			continue // retraction
		}
		out = append(out, a.Event)
	}
	// Leftovers label sessions with no raw event (unmatched at ingest).
	for _, a := range wins {
		if a.Event.SID != 0 {
			out = append(out, a.Event)
		}
	}
	SortEvents(out)
	return out
}

// ApplyAmendments resolves amendments over a canonically sorted raw event
// slice — the same resolution Snapshot applies, exported for read paths that
// materialize events outside the store (the timeline's as-of overlay).
func ApplyAmendments(events []ids.Event, as []Amendment) []ids.Event {
	return applyAmendments(events, as)
}

// AmendmentStats summarizes the resolved amendment set for metrics.
type AmendmentStats struct {
	Records  int // raw amendment records
	Sessions int // distinct amended sessions after max-generation resolution
}

// AmendmentStats reports the amendment log's size in records and distinct
// sessions.
func (s *Store) AmendmentStats() AmendmentStats {
	as := *s.amends.Load()
	wins := make(map[sessionKey]struct{}, len(as))
	for i := range as {
		wins[keyOfEvent(&as[i].Event)] = struct{}{}
	}
	return AmendmentStats{Records: len(as), Sessions: len(wins)}
}
