package timeline

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
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
//	  'C' index    count n | n x (string16 cve | count k | k x u32 ordinal)
//	               — which events carry each CVE, for per-CVE reads
//	  'B' bloom    u32 k | u64 mBits | bit bytes — CVE membership filter, so
//	               a per-CVE query skips whole segments without reading them
//
// Fields use the wal field codec (times, strings and bounded counts).
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
	segVersion = 1
	// timeIndexEvery is the sparse time-index stride: one entry per this
	// many events.
	timeIndexEvery = 64
	// bloomBitsPerCVE sizes the CVE bloom filter (~1% false positives at 10
	// bits/element with 4 hashes).
	bloomBitsPerCVE = 10
	bloomHashes     = 4
)

const (
	tagHeader = 'H'
	tagEvent  = 'E'
	tagTime   = 'T'
	tagCVE    = 'C'
	tagBloom  = 'B'
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
	eventsStart  int64 // offset of the first event frame
	eventsEnd    int64 // offset just past the last event frame
	timeIdx      []timeIdxEntry
	cveIdx       map[string][]uint32
	bloom        bloomFilter
	path         string
}

type timeIdxEntry struct {
	at      time.Time
	offset  int64 // frame start, relative to file start
	ordinal uint32
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
		// Frame header, tag, the fixed fields, two IPv6 addresses, strings,
		// and an ordinal in the CVE index.
		size += wal.FrameHeaderLen + 1 + eventstore.MinEventLen + 32 + len(ev.CVE) + len(ev.Msg) + 4
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
	// sparse index, and per-CVE ordinals for the CVE index.
	type idxe struct {
		at      time.Time
		off     int64
		ordinal uint32
	}
	entries := make([]idxe, 0, len(events)/timeIndexEvery+1)
	cveOrds := map[string][]uint32{}
	var payload []byte
	for i := range events {
		if i%timeIndexEvery == 0 {
			entries = append(entries, idxe{at: events[i].Time, off: int64(len(buf)), ordinal: uint32(i)})
		}
		if cve := events[i].CVE; cve != "" {
			cveOrds[cve] = append(cveOrds[cve], uint32(i))
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

	cves := make([]string, 0, len(cveOrds))
	for cve := range cveOrds {
		cves = append(cves, cve)
	}
	sortStrings(cves)
	cIdx := []byte{tagCVE}
	cIdx = binary.LittleEndian.AppendUint32(cIdx, uint32(len(cves)))
	for _, cve := range cves {
		cIdx = wal.AppendString16(cIdx, cve)
		ords := cveOrds[cve]
		cIdx = binary.LittleEndian.AppendUint32(cIdx, uint32(len(ords)))
		for _, o := range ords {
			cIdx = binary.LittleEndian.AppendUint32(cIdx, o)
		}
	}
	buf = wal.AppendFrame(buf, cIdx)

	bloom := newBloom(len(cves))
	for _, cve := range cves {
		bloom.add(cve)
	}
	bIdx := []byte{tagBloom}
	bIdx = binary.LittleEndian.AppendUint32(bIdx, bloomHashes)
	bIdx = binary.LittleEndian.AppendUint64(bIdx, uint64(bloom.mBits))
	bIdx = append(bIdx, bloom.bits...)
	buf = wal.AppendFrame(buf, bIdx)

	return buf
}

func sortStrings(s []string) {
	// Tiny insertion sort keeps segment.go free of a sort import fight with
	// the hot decode path; CVE counts per segment are small.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
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
		case tagCVE:
			return m.parseCVEIdx(payload[1:])
		case tagBloom:
			return m.parseBloom(payload[1:])
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
	if m.timeIdx == nil || m.cveIdx == nil || m.bloom.bits == nil {
		return nil, fmt.Errorf("timeline: %s: missing index frames", path)
	}
	return m, nil
}

func (m *segmentMeta) parseHeader(b []byte) error {
	c := wal.NewCursor(b)
	if v := c.U32(); v != segVersion {
		c.Fail(fmt.Errorf("unsupported segment version %d", v))
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
		e.ordinal = c.U32()
	}
	return c.Finish("time index")
}

func (m *segmentMeta) parseCVEIdx(b []byte) error {
	c := wal.NewCursor(b)
	n := c.Count(2 + 4) // an empty CVE with no ordinals
	m.cveIdx = make(map[string][]uint32, n)
	for ; n > 0; n-- {
		cve := c.String16()
		ords := make([]uint32, c.Count(4))
		for j := range ords {
			ords[j] = c.U32()
		}
		m.cveIdx[cve] = ords
	}
	return c.Finish("CVE index")
}

func (m *segmentMeta) parseBloom(b []byte) error {
	c := wal.NewCursor(b)
	k, mBits := c.U32(), c.U64()
	bits := c.Rest()
	if err := c.Err(); err != nil {
		return err
	}
	if k == 0 || k > 16 || mBits > uint64(len(bits))*8 {
		return fmt.Errorf("bad bloom geometry (k=%d mBits=%d bytes=%d)", k, mBits, len(bits))
	}
	m.bloom = bloomFilter{k: int(k), mBits: int(mBits), bits: append([]byte(nil), bits...)}
	return nil
}

// mayContainCVE consults the bloom filter (false = definitely absent).
func (m *segmentMeta) mayContainCVE(cve string) bool { return m.bloom.has(cve) }

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

// scanCVE calls fn for only the named CVE's events with Time <= hi, using
// the per-CVE ordinal index and the sparse time index to read the one byte
// range that holds them. Returns nothing quickly when the bloom filter rules
// the CVE out. Events are decoded as in scanRange: fn must not keep ev.
func (m *segmentMeta) scanCVE(fs fault.FS, names map[string]string, cve string, hi time.Time, fn func(*ids.Event) error) error {
	if !m.mayContainCVE(cve) || m.MinTime.After(hi) {
		return nil
	}
	ords := m.cveIdx[cve] // ascending: the encoder appends them in order
	if len(ords) == 0 {
		return nil
	}
	// From the index entry covering the first wanted ordinal to the first
	// entry past the last one or past hi.
	first, last := ords[0], ords[len(ords)-1]
	start, end, ordinal := m.eventsStart, m.eventsEnd, uint32(0)
	for _, e := range m.timeIdx {
		if e.ordinal > last || e.at.After(hi) {
			end = e.offset
			break
		}
		if e.ordinal <= first {
			start, ordinal = e.offset, e.ordinal
		}
	}
	next := 0 // the next wanted ordinal, as an index into ords
	var ev ids.Event
	return m.scanEvents(fs, start, end, func(b []byte) error {
		o := ordinal
		ordinal++
		for next < len(ords) && ords[next] < o {
			next++
		}
		if next == len(ords) {
			return errStopScan
		}
		if ords[next] != o {
			return nil
		}
		if err := eventstore.DecodeEventInto(b, &ev, names); err != nil {
			return err
		}
		if ev.Time.After(hi) {
			return errStopScan // events are time-ordered; nothing later qualifies
		}
		return fn(&ev)
	})
}

// bloomFilter is a standard double-hashed bloom filter over CVE strings.
type bloomFilter struct {
	k     int
	mBits int
	bits  []byte
}

func newBloom(n int) bloomFilter {
	bits := n * bloomBitsPerCVE
	if bits < 64 {
		bits = 64
	}
	bits = (bits + 63) / 64 * 64
	return bloomFilter{k: bloomHashes, mBits: bits, bits: make([]byte, bits/8)}
}

func bloomHash(s string) (uint64, uint64) {
	h := fnv.New64a()
	h.Write([]byte(s))
	h1 := h.Sum64()
	// SplitMix64 finalizer as the second, independent hash.
	z := h1 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	h2 := z ^ (z >> 31)
	if h2%2 == 0 { // keep the stride odd so it cycles the whole table
		h2++
	}
	return h1, h2
}

func (b *bloomFilter) add(s string) {
	h1, h2 := bloomHash(s)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % uint64(b.mBits)
		b.bits[bit/8] |= 1 << (bit % 8)
	}
}

func (b *bloomFilter) has(s string) bool {
	if b.mBits == 0 {
		return false
	}
	h1, h2 := bloomHash(s)
	for i := 0; i < b.k; i++ {
		bit := (h1 + uint64(i)*h2) % uint64(b.mBits)
		if b.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}
