package timeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/wal"
)

// maxRecord is the frame payload cap of the timeline's files (segments and
// checkpoints), the event store's record bound: their frames are single
// events, fixed-size headers and per-segment indexes.
const maxRecord = 1 << 20

// On-disk segment format. A segment file is:
//
//	8-byte magic "TLSEG\x00\x01\n"
//	repeated wal.AppendFrame records, each payload tagged by its
//	first byte:
//
//	  'H' header   u32 version | u64 seq | count shards | shards x u64
//	               cumulative sealed counts | u32 eventCount
//	               | minTime | maxTime
//	  'E' event    one eventstore.EncodeEvent payload; events appear in the
//	               store's canonical time order (eventstore.SortEvents)
//	  'T' index    u32 every | count n | n x (time | u64 frameOffset | u32 ordinal)
//	               — every `every`-th event's time and the byte offset of its
//	               frame, for locating a time cut without decoding the prefix
//
// Fields use the wal field codec (times, strings and bounded counts).
// Version 1 files also carry a per-CVE ordinal index ('C') and a CVE bloom
// filter ('B') after the time index; the parser skips both, since per-CVE
// reads filter a time-bounded scan.
//
// The header's cumulative counts are the per-shard committed-event counts
// the store had sealed after this segment, making segments self-describing:
// recovery reads the newest header and knows exactly where sealing resumes —
// there is no separate manifest to keep crash-consistent. A segment becomes
// visible only by the final rename of a fully fsynced temp file, so a listed
// *.seg is complete by construction; recovery's only cleanup is removing
// stranded *.tmp files.

var segMagic = [8]byte{'T', 'L', 'S', 'E', 'G', 0x00, 0x01, '\n'}

const (
	segVersion = 2
	// timeIndexEvery is the sparse time-index stride: one entry per this
	// many events.
	timeIndexEvery = 64
)

const (
	tagHeader = 'H'
	tagEvent  = 'E'
	tagTime   = 'T'
	// Version 1 index frames, skipped on read.
	tagCVEv1   = 'C'
	tagBloomv1 = 'B'
)

func segmentName(seq uint64) string { return fmt.Sprintf("segment-%06d.seg", seq) }

// segmentMeta is the in-memory summary of one sealed segment: everything
// needed to decide whether a query must read the file, without the events.
type segmentMeta struct {
	Seq          uint64
	SealedCounts []int64 // cumulative per-shard committed counts after this segment
	Count        int
	MinTime      time.Time
	MaxTime      time.Time
	SizeBytes    int64
	version      uint32
	eventsStart  int64 // offset of the first event frame
	eventsEnd    int64 // offset just past the last event frame
	timeIdx      []timeIdxEntry
	path         string
}

type timeIdxEntry struct {
	at     time.Time
	offset int64 // frame start, relative to file start
}

// encodeSegment builds the full segment file image. events must already be
// in canonical order (eventstore.SortEvents).
func encodeSegment(seq uint64, sealedCounts []int64, events []ids.Event) []byte {
	refs := make([]*ids.Event, len(events))
	for i := range events {
		refs[i] = &events[i]
	}
	return encodeSegmentRefs(seq, sealedCounts, refs)
}

// encodeSegmentRefs is encodeSegment over events held by reference, as Seal
// orders them in the store's own slices. The buffer is sized up front: event
// frames are bounded by their strings' lengths, and the indexes take a few
// bytes per event.
func encodeSegmentRefs(seq uint64, sealedCounts []int64, events []*ids.Event) []byte {
	size := len(segMagic) + 4096 + 8*len(sealedCounts)
	for _, ev := range events {
		// Frame header, tag, the fixed fields, two IPv6 addresses, strings.
		size += wal.FrameHeaderLen + 1 + eventstore.MinEventLen + 32 + len(ev.CVE) + len(ev.Msg)
	}
	size += len(events) / timeIndexEvery * 24
	buf := append(make([]byte, 0, size), segMagic[:]...)

	var minT, maxT time.Time
	for i := range events {
		if i == 0 || events[i].Time.Before(minT) {
			minT = events[i].Time
		}
		if i == 0 || events[i].Time.After(maxT) {
			maxT = events[i].Time
		}
	}
	header := []byte{tagHeader}
	header = binary.LittleEndian.AppendUint32(header, segVersion)
	header = binary.LittleEndian.AppendUint64(header, seq)
	header = binary.LittleEndian.AppendUint32(header, uint32(len(sealedCounts)))
	for _, n := range sealedCounts {
		header = binary.LittleEndian.AppendUint64(header, uint64(n))
	}
	header = binary.LittleEndian.AppendUint32(header, uint32(len(events)))
	header = wal.AppendTime(header, minT)
	header = wal.AppendTime(header, maxT)
	buf = wal.AppendFrame(buf, header)

	// Event frames, recording every timeIndexEvery-th frame's offset for the
	// sparse index.
	type idxe struct {
		at      time.Time
		off     int64
		ordinal uint32
	}
	entries := make([]idxe, 0, len(events)/timeIndexEvery+1)
	var payload []byte
	for i := range events {
		if i%timeIndexEvery == 0 {
			entries = append(entries, idxe{at: events[i].Time, off: int64(len(buf)), ordinal: uint32(i)})
		}
		payload = append(payload[:0], tagEvent)
		payload = eventstore.EncodeEvent(payload, events[i])
		buf = wal.AppendFrame(buf, payload)
	}

	tIdx := []byte{tagTime}
	tIdx = binary.LittleEndian.AppendUint32(tIdx, timeIndexEvery)
	tIdx = binary.LittleEndian.AppendUint32(tIdx, uint32(len(entries)))
	for _, e := range entries {
		tIdx = wal.AppendTime(tIdx, e.at)
		tIdx = binary.LittleEndian.AppendUint64(tIdx, uint64(e.off))
		tIdx = binary.LittleEndian.AppendUint32(tIdx, e.ordinal)
	}
	buf = wal.AppendFrame(buf, tIdx)
	return buf
}

// parseSegment reads a segment file image into its metadata summary. The
// events themselves are not retained: queries read back only the byte range
// of event frames they need, located through the sparse time index, so
// resident cost per segment is the index, not the data.
func parseSegment(path string, raw []byte) (*segmentMeta, error) {
	if len(raw) < len(segMagic) || [8]byte(raw[:8]) != segMagic {
		return nil, fmt.Errorf("timeline: %s is not a segment file", path)
	}
	m := &segmentMeta{path: path, Count: -1, SizeBytes: int64(len(raw))}
	end := int64(len(segMagic)) // the end of the frames parsed so far
	good, clean, err := wal.ScanFrames(raw[len(segMagic):], maxRecord, func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("empty frame")
		}
		start := end
		end += int64(wal.FrameHeaderLen + len(payload))
		switch payload[0] {
		case tagHeader:
			return m.parseHeader(payload[1:])
		case tagEvent:
			// Validated lazily at scan time; only located here.
			if m.eventsEnd == 0 {
				m.eventsStart = start
			}
			m.eventsEnd = end
		case tagTime:
			return m.parseTimeIdx(payload[1:])
		case tagCVEv1, tagBloomv1:
			if m.version != 1 {
				return fmt.Errorf("frame tag %q in a version %d segment", payload[0], m.version)
			}
		default:
			return fmt.Errorf("unknown frame tag %q", payload[0])
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("timeline: %s: %w", path, err)
	}
	if !clean {
		return nil, fmt.Errorf("timeline: %s: torn frame at offset %d (segments are renamed in whole; this is storage corruption)", path, len(segMagic)+good)
	}
	if m.Count < 0 || m.SealedCounts == nil {
		return nil, fmt.Errorf("timeline: %s: missing header frame", path)
	}
	if m.timeIdx == nil {
		return nil, fmt.Errorf("timeline: %s: missing time index frame", path)
	}
	return m, nil
}

func (m *segmentMeta) parseHeader(b []byte) error {
	c := wal.NewCursor(b)
	if m.version = c.U32(); m.version != 1 && m.version != segVersion {
		c.Fail(fmt.Errorf("unsupported segment version %d", m.version))
	}
	m.Seq = c.U64()
	m.SealedCounts = make([]int64, c.Count(8))
	for i := range m.SealedCounts {
		m.SealedCounts[i] = int64(c.U64())
	}
	m.Count = int(c.U32())
	m.MinTime = c.Time()
	m.MaxTime = c.Time()
	return c.Finish("header")
}

func (m *segmentMeta) parseTimeIdx(b []byte) error {
	c := wal.NewCursor(b)
	c.U32() // the stride: entries carry their own ordinals
	m.timeIdx = make([]timeIdxEntry, c.Count(12+8+4))
	for i := range m.timeIdx {
		e := &m.timeIdx[i]
		e.at = c.Time()
		e.offset = int64(c.U64())
		c.U32() // the entry's ordinal
	}
	return c.Finish("time index")
}

// segBufs recycles the buffers segment byte ranges are read into.
var segBufs = sync.Pool{New: func() any { return new([]byte) }}

// errStopScan ends a scan early without error.
var errStopScan = errors.New("timeline: stop scan")

// scanEvents reads the event frames in the byte range [start, end) of the
// segment file — and only those bytes — and calls fn with each payload past
// its tag. fn may return errStopScan to end the scan early. Every frame read
// is CRC-checked: a range that does not parse cleanly to its end is storage
// corruption and fails the query, so a damaged segment can never pass a
// short answer off as a complete one (or into a checkpoint).
func (m *segmentMeta) scanEvents(fs fault.FS, start, end int64, fn func(event []byte) error) error {
	if start < m.eventsStart || end < start || end > m.eventsEnd {
		return fmt.Errorf("timeline: %s: range [%d, %d) outside the event frames [%d, %d)", m.path, start, end, m.eventsStart, m.eventsEnd)
	}
	f, err := fs.OpenFile(m.path, os.O_RDONLY, 0)
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	defer f.Close()
	bp := segBufs.Get().(*[]byte)
	defer segBufs.Put(bp)
	*bp = slices.Grow((*bp)[:0], int(end-start))[:end-start]
	if _, err := f.ReadAt(*bp, start); err != nil {
		return fmt.Errorf("timeline: %s: %w", m.path, err)
	}
	good, clean, err := wal.ScanFrames(*bp, maxRecord, func(payload []byte) error {
		if len(payload) == 0 || payload[0] != tagEvent {
			return fmt.Errorf("non-event frame inside the event range")
		}
		return fn(payload[1:])
	})
	switch {
	case err == errStopScan:
		return nil
	case err != nil:
		return fmt.Errorf("timeline: %s: %w", m.path, err)
	case !clean:
		return fmt.Errorf("timeline: %s: corrupt frame at offset %d (sealed segments are immutable; this is storage corruption)", m.path, start+int64(good))
	}
	return nil
}

// scanRange calls fn for each event of the segment with lo < Time <= hi (no
// lower bound when hasLo is false), in segment order. Events are time-ordered
// within a segment, so only one byte range is read: from the last
// sparse-index entry at or below lo to the first entry past hi (or the end
// of the event frames), the frames before and after holding nothing that
// qualifies. Every frame is decoded into the same Event, with CVE and
// message strings taken from names (eventstore.DecodeEventInto), so fn must
// not keep ev; a nil names copies the strings.
func (m *segmentMeta) scanRange(fs fault.FS, names map[string]string, hasLo bool, lo, hi time.Time, fn func(*ids.Event) error) error {
	if m.Count == 0 || m.MinTime.After(hi) {
		return nil
	}
	if hasLo && !m.MaxTime.After(lo) {
		return nil // fully at or below the lower bound
	}
	start, end := m.eventsStart, m.eventsEnd
	for _, e := range m.timeIdx {
		if e.at.After(hi) {
			end = e.offset
			break
		}
		if hasLo && !e.at.After(lo) {
			start = e.offset
		}
	}
	var ev ids.Event
	return m.scanEvents(fs, start, end, func(b []byte) error {
		if err := eventstore.DecodeEventInto(b, &ev, names); err != nil {
			return err
		}
		if ev.Time.After(hi) {
			return errStopScan
		}
		if hasLo && !ev.Time.After(lo) {
			return nil
		}
		return fn(&ev)
	})
}
