package timeline

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
//	  'H' header   u32 version | u64 seq | u32 shards | shards x u64
//	               cumulative sealed counts | u32 eventCount
//	               | minTime | maxTime            (times are i64 sec + u32 nsec)
//	  'E' event    one eventstore.EncodeEvent payload; events appear in the
//	               store's canonical time order (eventstore.SortEvents)
//	  'T' index    u32 every | u32 n | n x (time | u64 frameOffset | u32 ordinal)
//	               — every `every`-th event's time and the byte offset of its
//	               frame, for locating a time cut without decoding the prefix
//	  'C' index    u32 n | n x (u16 len | cve | u32 count | count x u32 ordinal)
//	               — which events carry each CVE, for per-CVE reads
//	  'B' bloom    u32 k | u64 mBits | bit bytes — CVE membership filter, so
//	               a per-CVE query skips whole segments without reading them
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
	buf := append([]byte(nil), segMagic[:]...)

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
	header = appendSegTime(header, minT)
	header = appendSegTime(header, maxT)
	buf = wal.AppendFrame(buf, header)

	// Event frames, recording every timeIndexEvery-th frame's offset for the
	// sparse index, and per-CVE ordinals for the CVE index.
	type idxe struct {
		at      time.Time
		off     int64
		ordinal uint32
	}
	var entries []idxe
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
		payload = eventstore.EncodeEvent(payload, &events[i])
		buf = wal.AppendFrame(buf, payload)
	}

	tIdx := []byte{tagTime}
	tIdx = binary.LittleEndian.AppendUint32(tIdx, timeIndexEvery)
	tIdx = binary.LittleEndian.AppendUint32(tIdx, uint32(len(entries)))
	for _, e := range entries {
		tIdx = appendSegTime(tIdx, e.at)
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
		cIdx = binary.LittleEndian.AppendUint16(cIdx, uint16(len(cve)))
		cIdx = append(cIdx, cve...)
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

func appendSegTime(buf []byte, t time.Time) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.Unix()))
	return binary.LittleEndian.AppendUint32(buf, uint32(t.Nanosecond()))
}

func takeSegTime(b []byte) (time.Time, []byte, error) {
	if len(b) < 12 {
		return time.Time{}, nil, fmt.Errorf("timeline: truncated time field")
	}
	sec := int64(binary.LittleEndian.Uint64(b[0:8]))
	nsec := binary.LittleEndian.Uint32(b[8:12])
	return time.Unix(sec, int64(nsec)).UTC(), b[12:], nil
}

// parseSegment reads a segment file image into its metadata summary. The
// events themselves are not retained: queries re-read the file and scan from
// a sparse-index offset, so resident cost per segment is the index, not the
// data.
func parseSegment(path string, raw []byte) (*segmentMeta, error) {
	if len(raw) < len(segMagic) || [8]byte(raw[:8]) != segMagic {
		return nil, fmt.Errorf("timeline: %s is not a segment file", path)
	}
	m := &segmentMeta{path: path, Count: -1, SizeBytes: int64(len(raw))}
	good, clean, err := wal.ScanFrames(raw[len(segMagic):], maxRecord, func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("empty frame")
		}
		switch payload[0] {
		case tagHeader:
			return m.parseHeader(payload[1:])
		case tagEvent:
			// Validated lazily at scan time; only count here.
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
	if len(b) < 16 {
		return fmt.Errorf("short header")
	}
	if v := binary.LittleEndian.Uint32(b[0:4]); v != segVersion {
		return fmt.Errorf("unsupported segment version %d", v)
	}
	m.Seq = binary.LittleEndian.Uint64(b[4:12])
	nShards := binary.LittleEndian.Uint32(b[12:16])
	b = b[16:]
	if nShards > 1<<12 || len(b) < int(nShards)*8+4 {
		return fmt.Errorf("short header (shards=%d)", nShards)
	}
	m.SealedCounts = make([]int64, nShards)
	for i := range m.SealedCounts {
		m.SealedCounts[i] = int64(binary.LittleEndian.Uint64(b[:8]))
		b = b[8:]
	}
	m.Count = int(binary.LittleEndian.Uint32(b[:4]))
	b = b[4:]
	var err error
	if m.MinTime, b, err = takeSegTime(b); err != nil {
		return err
	}
	if m.MaxTime, b, err = takeSegTime(b); err != nil {
		return err
	}
	if len(b) != 0 {
		return fmt.Errorf("%d stray bytes after header", len(b))
	}
	return nil
}

func (m *segmentMeta) parseTimeIdx(b []byte) error {
	if len(b) < 8 {
		return fmt.Errorf("short time index")
	}
	n := binary.LittleEndian.Uint32(b[4:8])
	b = b[8:]
	if n > 1<<28 {
		return fmt.Errorf("oversized time index (%d entries)", n)
	}
	m.timeIdx = make([]timeIdxEntry, 0, n)
	for i := uint32(0); i < n; i++ {
		at, rest, err := takeSegTime(b)
		if err != nil {
			return err
		}
		if len(rest) < 12 {
			return fmt.Errorf("short time index entry")
		}
		m.timeIdx = append(m.timeIdx, timeIdxEntry{
			at:      at,
			offset:  int64(binary.LittleEndian.Uint64(rest[0:8])),
			ordinal: binary.LittleEndian.Uint32(rest[8:12]),
		})
		b = rest[12:]
	}
	if len(b) != 0 {
		return fmt.Errorf("%d stray bytes after time index", len(b))
	}
	return nil
}

func (m *segmentMeta) parseCVEIdx(b []byte) error {
	if len(b) < 4 {
		return fmt.Errorf("short CVE index")
	}
	n := binary.LittleEndian.Uint32(b[0:4])
	b = b[4:]
	if n > 1<<24 {
		return fmt.Errorf("oversized CVE index (%d entries)", n)
	}
	m.cveIdx = make(map[string][]uint32, n)
	for i := uint32(0); i < n; i++ {
		if len(b) < 2 {
			return fmt.Errorf("short CVE index entry")
		}
		sl := int(binary.LittleEndian.Uint16(b[0:2]))
		b = b[2:]
		if len(b) < sl+4 {
			return fmt.Errorf("short CVE index entry")
		}
		cve := string(b[:sl])
		b = b[sl:]
		cnt := binary.LittleEndian.Uint32(b[0:4])
		b = b[4:]
		if uint64(cnt)*4 > uint64(len(b)) {
			return fmt.Errorf("short CVE ordinal list")
		}
		ords := make([]uint32, cnt)
		for j := range ords {
			ords[j] = binary.LittleEndian.Uint32(b[:4])
			b = b[4:]
		}
		m.cveIdx[cve] = ords
	}
	if len(b) != 0 {
		return fmt.Errorf("%d stray bytes after CVE index", len(b))
	}
	return nil
}

func (m *segmentMeta) parseBloom(b []byte) error {
	if len(b) < 12 {
		return fmt.Errorf("short bloom filter")
	}
	k := binary.LittleEndian.Uint32(b[0:4])
	mBits := binary.LittleEndian.Uint64(b[4:12])
	bits := b[12:]
	if k == 0 || k > 16 || mBits > uint64(len(bits))*8 {
		return fmt.Errorf("bad bloom geometry (k=%d mBits=%d bytes=%d)", k, mBits, len(bits))
	}
	m.bloom = bloomFilter{k: int(k), mBits: int(mBits), bits: append([]byte(nil), bits...)}
	return nil
}

// mayContainCVE consults the bloom filter (false = definitely absent).
func (m *segmentMeta) mayContainCVE(cve string) bool { return m.bloom.has(cve) }

// scanRange reads the segment file and calls fn for each event with
// lo < Time <= hi (no lower bound when hasLo is false), in segment order.
// Events are time-ordered within a segment, so the scan starts at the last
// sparse-index entry at or below lo and stops at the first event past hi.
func (m *segmentMeta) scanRange(fs fault.FS, hasLo bool, lo, hi time.Time, fn func(ids.Event) error) error {
	if m.Count == 0 || m.MinTime.After(hi) {
		return nil
	}
	if hasLo && !m.MaxTime.After(lo) {
		return nil // fully at or below the lower bound
	}
	raw, err := fs.ReadFile(m.path)
	if err != nil {
		return err
	}
	start := int64(len(segMagic))
	if hasLo {
		// Last index entry with at <= lo: every event before it is <= lo too.
		for _, e := range m.timeIdx {
			if e.at.After(lo) {
				break
			}
			start = e.offset
		}
	}
	if start > int64(len(raw)) {
		return fmt.Errorf("timeline: %s: index offset %d beyond file (%d bytes)", m.path, start, len(raw))
	}
	stop := fmt.Errorf("stop") //nolint:err113 — internal scan sentinel
	_, _, err = wal.ScanFrames(raw[start:], maxRecord, func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("empty frame")
		}
		if payload[0] == tagHeader {
			return nil // scanning from the file start; events follow
		}
		if payload[0] != tagEvent {
			return stop // past the event frames (index/bloom tail)
		}
		ev, err := eventstore.DecodeEvent(payload[1:])
		if err != nil {
			return err
		}
		if ev.Time.After(hi) {
			return stop
		}
		if hasLo && !ev.Time.After(lo) {
			return nil
		}
		return fn(ev)
	})
	if err == stop {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("timeline: %s: %w", m.path, err)
	}
	return nil
}

// scanCVE reads only the named CVE's events with Time <= hi, using the
// per-CVE ordinal index and the sparse time index to touch as few frames as
// possible. Returns nothing quickly when the bloom filter rules the CVE out.
func (m *segmentMeta) scanCVE(fs fault.FS, cve string, hi time.Time, fn func(ids.Event) error) error {
	if !m.mayContainCVE(cve) || m.MinTime.After(hi) {
		return nil
	}
	ords, ok := m.cveIdx[cve]
	if !ok || len(ords) == 0 {
		return nil
	}
	raw, err := fs.ReadFile(m.path)
	if err != nil {
		return err
	}
	want := make(map[uint32]bool, len(ords))
	for _, o := range ords {
		want[o] = true
	}
	// Start at the index entry covering the first wanted ordinal.
	first := ords[0]
	start, ordinal := int64(len(segMagic)), uint32(0)
	for _, e := range m.timeIdx {
		if e.ordinal > first {
			break
		}
		start, ordinal = e.offset, e.ordinal
	}
	if start > int64(len(raw)) {
		return fmt.Errorf("timeline: %s: index offset %d beyond file (%d bytes)", m.path, start, len(raw))
	}
	last := ords[len(ords)-1]
	stop := fmt.Errorf("stop") //nolint:err113
	_, _, err = wal.ScanFrames(raw[start:], maxRecord, func(payload []byte) error {
		if len(payload) == 0 {
			return fmt.Errorf("empty frame")
		}
		if payload[0] == tagHeader {
			return nil // scanning from the file start; events follow
		}
		if payload[0] != tagEvent {
			return stop
		}
		o := ordinal
		ordinal++
		if o > last {
			return stop
		}
		if !want[o] {
			return nil
		}
		ev, err := eventstore.DecodeEvent(payload[1:])
		if err != nil {
			return err
		}
		if ev.Time.After(hi) {
			return stop // events are time-ordered; nothing later qualifies
		}
		return fn(ev)
	})
	if err == stop {
		err = nil
	}
	if err != nil {
		return fmt.Errorf("timeline: %s: %w", m.path, err)
	}
	return nil
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
