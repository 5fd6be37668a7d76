package timeline

import (
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/ids"
	"repro/internal/lifecycle"
	"repro/internal/wal"
)

// Aggregate is the mergeable summary a checkpoint persists: scan statistics
// and per-CVE lifecycle accumulators. Both components are commutative
// monoids — insensitive to event order and batching — which is what makes
// checkpoints correct under late-arriving events: a checkpoint covers
// "events in sealed segments [0..k) with Time <= cut" no matter what order
// those events arrived in.
type Aggregate struct {
	Stats *ids.StatsBuilder
	Life  *lifecycle.Builder
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{Stats: ids.NewStatsBuilder(), Life: lifecycle.NewBuilder()}
}

// Add folds a batch of events into the aggregate. rulePub maps rule SIDs to
// their publication times (lifecycle FixReady evidence).
func (a *Aggregate) Add(events []ids.Event, rulePub map[int]time.Time) {
	a.Stats.AddEvents(events)
	a.Life.AddEvents(events, rulePub)
}

// AddOne folds a single event by pointer, so a scan can fold the one Event
// it decodes every frame into. It keeps ev's CVE string but not ev itself.
func (a *Aggregate) AddOne(ev *ids.Event, rulePub map[int]time.Time) {
	a.Stats.AddEvent(ev)
	a.Life.AddEvent(ev, rulePub)
}

// Clone returns an independent deep copy.
func (a *Aggregate) Clone() *Aggregate {
	return &Aggregate{Stats: a.Stats.Clone(), Life: a.Life.Clone()}
}

// EventCount reports how many events have been folded in.
func (a *Aggregate) EventCount() int { return a.Life.EventCount() }

// On-disk checkpoint format:
//
//	8-byte magic "TLCKP\x00\x01\n"
//	frame 'K': u32 version | u64 seq | u32 k (sealed segments covered)
//	           | time cutTime | time writtenAt        (wal field codec)
//	frame 'S': ids.StatsBuilder binary encoding
//	frame 'L': lifecycle.Builder binary encoding
//
// A checkpoint with segment count k and cut time tc asserts: the aggregate
// covers exactly the events in segments [0..k) — all of them, since tc is
// the running maximum event time over that sealed prefix. AsOf(t) picks the
// newest checkpoint with tc <= t and replays only events in (tc, t] from
// newer segments plus the store's unsealed tail.

var ckptMagic = [8]byte{'T', 'L', 'C', 'K', 'P', 0x00, 0x01, '\n'}

const (
	ckptVersion = 1
	tagCkptHdr  = 'K'
	tagStats    = 'S'
	tagLife     = 'L'
)

func checkpointName(seq uint64) string { return fmt.Sprintf("ckpt-%06d.ck", seq) }

// ckptMeta is the in-memory handle for one checkpoint; the aggregate itself
// is loaded (and cached) on demand.
type ckptMeta struct {
	Seq       uint64
	K         int // segments [0..K) covered
	Cut       time.Time
	WrittenAt time.Time
	SizeBytes int64
	path      string
}

func encodeCheckpoint(seq uint64, k int, cut, writtenAt time.Time, agg *Aggregate) []byte {
	buf := append([]byte(nil), ckptMagic[:]...)
	hdr := []byte{tagCkptHdr}
	hdr = binary.LittleEndian.AppendUint32(hdr, ckptVersion)
	hdr = binary.LittleEndian.AppendUint64(hdr, seq)
	hdr = binary.LittleEndian.AppendUint32(hdr, uint32(k))
	hdr = wal.AppendTime(hdr, cut)
	hdr = wal.AppendTime(hdr, writtenAt)
	buf = wal.AppendFrame(buf, hdr)
	buf = wal.AppendFrame(buf, agg.Stats.AppendBinary([]byte{tagStats}))
	buf = wal.AppendFrame(buf, agg.Life.AppendBinary([]byte{tagLife}))
	return buf
}

// parseCheckpoint decodes a checkpoint file. Any malformation is an error;
// the engine treats a bad checkpoint as absent (falling back to the previous
// one) rather than fatal, since losing a checkpoint only costs replay time,
// never correctness.
func parseCheckpoint(path string, raw []byte) (*ckptMeta, *Aggregate, error) {
	if len(raw) < len(ckptMagic) || [8]byte(raw[:8]) != ckptMagic {
		return nil, nil, fmt.Errorf("timeline: %s is not a checkpoint file", path)
	}
	meta := &ckptMeta{path: path, K: -1, SizeBytes: int64(len(raw))}
	agg := &Aggregate{}
	_, clean, err := wal.ScanFrames(raw[len(ckptMagic):], maxRecord, func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("empty frame")
		}
		body := payload[1:]
		switch payload[0] {
		case tagCkptHdr:
			c := wal.NewCursor(body)
			if v := c.U32(); v != ckptVersion {
				c.Fail(fmt.Errorf("unsupported checkpoint version %d", v))
			}
			meta.Seq = c.U64()
			meta.K = int(c.U32())
			meta.Cut = c.Time()
			meta.WrittenAt = c.Time()
			if err := c.Finish("checkpoint header"); err != nil {
				return err
			}
		case tagStats:
			sb, rest, err := ids.DecodeStatsBuilder(body)
			if err != nil {
				return err
			}
			if len(rest) != 0 {
				return fmt.Errorf("%d stray bytes after stats", len(rest))
			}
			agg.Stats = sb
		case tagLife:
			lb, rest, err := lifecycle.DecodeBuilder(body)
			if err != nil {
				return err
			}
			if len(rest) != 0 {
				return fmt.Errorf("%d stray bytes after lifecycle state", len(rest))
			}
			agg.Life = lb
		default:
			return fmt.Errorf("unknown frame tag %q", payload[0])
		}
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("timeline: %s: %w", path, err)
	}
	if !clean {
		return nil, nil, fmt.Errorf("timeline: %s: torn frame", path)
	}
	if meta.K < 0 || agg.Stats == nil || agg.Life == nil {
		return nil, nil, fmt.Errorf("timeline: %s: missing frames", path)
	}
	return meta, agg, nil
}
