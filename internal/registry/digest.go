package registry

import (
	"encoding/binary"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/eventstore"
	"repro/internal/fault"
	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/tcpasm"
	"repro/internal/wal"
)

// Per-session digests are what make retroactive re-attribution possible: at
// ingest time, every session (matched or not — unmatched sessions can gain a
// label when an earlier-published rule arrives later) persists the exact
// inputs the matcher consumed: normalized stream samples plus the session
// identity and its ingest-time label. A rescan reconstructs a
// tcpasm.Session from the digest and re-runs the engine cold; when the
// effective label differs from the recorded one, it emits an amendment.
//
// digests.log is a wal.Log behind its own magic. Records stay far below the
// 1 MB cap at the default sample caps; under a larger SampleLimit Append trims
// a digest that would exceed it and marks it Truncated. Appends are buffered in the OS;
// Sync is called from the ingest checkpoint path so digest durability rides
// the same cadence as event durability. A lost tail after a crash costs
// re-attribution coverage for the lost sessions only.

var digestMagic = [8]byte{'S', 'D', 'I', 'G', 0x01, 0x01, 0x01, '\n'}

const digestMaxRecord = 1 << 20

// DefaultSampleLimit caps each direction's stored stream sample. The
// telescope's sessions are short probes; 64 KiB keeps virtually all of them
// whole (Truncated marks the rest).
const DefaultSampleLimit = 64 << 10

// Digest is one session's matcher-relevant state.
type Digest struct {
	Start      time.Time
	Client     packet.Endpoint
	Server     packet.Endpoint
	ClientData []byte
	ServerData []byte
	Complete   bool
	// Truncated marks a digest whose samples hit the cap: a rescan over it
	// sees less than the cold pipeline did, so label differences are
	// advisory, not amendments.
	Truncated bool
	// Ambiguous carries the reassembler's overlap-conflict flag: the stored
	// stream sample reflects one overlap-policy choice among several the
	// wire permitted, so a rescan must weigh its verdict the same way the
	// live pipeline did.
	Ambiguous bool
	// OrigSID/OrigCVE/OrigPublished record the ingest-time label (zero SID =
	// no match).
	OrigSID       int
	OrigCVE       string
	OrigPublished time.Time
}

// Session reconstructs the matcher's view of the session. The fields the
// engine consults (Start, endpoints, stream data, Complete) round-trip; the
// rest (End, Packets) are not digested because no rule path reads them.
func (d *Digest) Session() tcpasm.Session {
	return tcpasm.Session{
		Client:     d.Client,
		Server:     d.Server,
		Start:      d.Start,
		ClientData: d.ClientData,
		ServerData: d.ServerData,
		Complete:   d.Complete,
		Ambiguous:  d.Ambiguous,
	}
}

// A digest record is time Start | Client and Server endpoints (the event
// codec's) | bytes32 ClientData | bytes32 ServerData | u8 flags (bit 0
// Complete, 1 Truncated, 2 Ambiguous) | u32 OrigSID | string16 OrigCVE |
// time OrigPublished.
func appendDigest(buf []byte, d *Digest) []byte {
	buf = wal.AppendTime(buf, d.Start)
	buf = eventstore.AppendEndpoint(buf, d.Client)
	buf = eventstore.AppendEndpoint(buf, d.Server)
	buf = wal.AppendBytes32(buf, d.ClientData)
	buf = wal.AppendBytes32(buf, d.ServerData)
	var flags byte
	if d.Complete {
		flags |= 1
	}
	if d.Truncated {
		flags |= 2
	}
	if d.Ambiguous {
		flags |= 4
	}
	buf = append(buf, flags)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(d.OrigSID))
	buf = wal.AppendString16(buf, d.OrigCVE)
	return wal.AppendTime(buf, d.OrigPublished)
}

func decodeDigest(payload []byte) (Digest, error) {
	c := wal.NewCursor(payload)
	var dg Digest
	dg.Start = c.Time()
	dg.Client = eventstore.ReadEndpoint(&c)
	dg.Server = eventstore.ReadEndpoint(&c)
	dg.ClientData = append([]byte(nil), c.Bytes32()...)
	dg.ServerData = append([]byte(nil), c.Bytes32()...)
	flags := c.U8()
	dg.Complete = flags&1 != 0
	dg.Truncated = flags&2 != 0
	dg.Ambiguous = flags&4 != 0
	dg.OrigSID = int(c.U32())
	dg.OrigCVE = c.String16()
	dg.OrigPublished = c.Time()
	if err := c.Finish("digest"); err != nil {
		return Digest{}, err
	}
	return dg, nil
}

// digestLog is the open digest file.
type digestLog struct {
	fs   fault.FS
	path string

	mu  sync.Mutex
	log *wal.Log
	n   int64 // recovered + appended record count
}

func openDigestLog(fs fault.FS, dir string) (*digestLog, error) {
	l := &digestLog{fs: fs, path: filepath.Join(dir, "digests.log")}
	log, err := wal.Open(fs, l.path, digestMagic, digestMaxRecord, func(payload []byte) error {
		if _, err := decodeDigest(payload); err != nil {
			return err
		}
		l.n++
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("registry: digest log: %w", err)
	}
	l.log = log
	return l, nil
}

// Append writes digests. Durability arrives at the next Sync.
func (l *digestLog) Append(ds []Digest) error {
	if len(ds) == 0 {
		return nil
	}
	var buf, payload []byte
	for i := range ds {
		payload = appendDigest(payload[:0], &ds[i])
		if over := len(payload) - digestMaxRecord; over > 0 {
			// Only a SampleLimit far above the default gets here. Keep what
			// fits — the server sample goes first, rules mostly read the
			// request — rather than fail the batch or write a frame recovery
			// would refuse. The fixed fields are far below the cap, so the
			// samples always hold the excess.
			d := ds[i]
			d.Truncated = true
			cut := min(over, len(d.ServerData))
			d.ServerData = d.ServerData[:len(d.ServerData)-cut]
			d.ClientData = d.ClientData[:len(d.ClientData)-(over-cut)]
			payload = appendDigest(payload[:0], &d)
		}
		buf = wal.AppendFrame(buf, payload)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.log.Append(buf); err != nil {
		return fmt.Errorf("registry: appending digests: %w", err)
	}
	l.n += int64(len(ds))
	return nil
}

// Sync fsyncs the log — called from the ingest checkpoint path.
func (l *digestLog) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.Sync()
}

// Len returns the record count.
func (l *digestLog) Len() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.n
}

// walk re-reads the log from disk and streams every intact digest to fn —
// the rescan path. It reads a point-in-time prefix; records appended during
// the walk are covered by the next rescan.
func (l *digestLog) walk(fn func(Digest) error) error {
	raw, err := l.fs.ReadFile(l.path)
	if err != nil {
		return err
	}
	if len(raw) < len(digestMagic) {
		return nil
	}
	_, _, err = wal.ScanFrames(raw[len(digestMagic):], digestMaxRecord, func(payload []byte) error {
		d, derr := decodeDigest(payload)
		if derr != nil {
			return derr
		}
		return fn(d)
	})
	return err
}

// DigestOf captures a session and its ingest-time label (ev nil = no match)
// under the sample cap.
func DigestOf(s *tcpasm.Session, ev *ids.Event, sampleLimit int) Digest {
	if sampleLimit <= 0 {
		sampleLimit = DefaultSampleLimit
	}
	d := Digest{
		Start:     s.Start,
		Client:    s.Client,
		Server:    s.Server,
		Complete:  s.Complete,
		Ambiguous: s.Ambiguous,
	}
	d.ClientData, d.Truncated = capSample(s.ClientData, sampleLimit, d.Truncated)
	d.ServerData, d.Truncated = capSample(s.ServerData, sampleLimit, d.Truncated)
	if ev != nil {
		d.OrigSID = ev.SID
		d.OrigCVE = ev.CVE
		d.OrigPublished = ev.Published
	}
	return d
}

func capSample(b []byte, limit int, truncated bool) ([]byte, bool) {
	if len(b) > limit {
		return append([]byte(nil), b[:limit]...), true
	}
	return append([]byte(nil), b...), truncated
}
