package registry

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"path/filepath"

	"repro/internal/fault"
	"repro/internal/rules"
	"repro/internal/wal"
)

// The ruleset journal is the registry's source of truth: an append-only log
// of ruleset deltas, one entry per publication. Each entry carries a
// monotonic generation number and the delta in the dated-ruleset text format
// (a publication comment per rule), so the journal is greppable with the
// same tooling as the study ruleset and folds back through the one parser
// everything else uses.
//
// The file is a wal.Log (magic "RSJRNL\x01\n") with its own record cap: a
// full Talos-scale delta is a few megabytes of text, far beyond the event
// store's 1 MB record bound. Entry payload:
//
//	u64 generation | dated-ruleset text
//
// Recovery is stricter than the framing alone: an entry that does not parse,
// or whose generation does not increase, ends the log there (the file was
// spliced, or corruption beat the CRC). A crash mid-publish costs that
// publish (the caller re-publishes), never the journal.

var journalMagic = [8]byte{'R', 'S', 'J', 'R', 'N', 'L', 0x01, '\n'}

// maxJournalEntry bounds one delta's encoded size. A 48k-rule full snapshot
// in text form is ~6 MB; 64 MB leaves an order of magnitude of headroom while
// still rejecting garbage length prefixes.
const maxJournalEntry = 64 << 20

// journalEntry is one decoded publication.
type journalEntry struct {
	gen   uint64
	delta []rules.DatedRule
}

// rulesetJournal is the open journal file plus its recovered entries' high
// generation.
type rulesetJournal struct {
	log *wal.Log
	gen uint64 // generation of the newest entry (0 = empty journal)
}

// openJournal opens (creating if needed) dir/ruleset.journal and replays
// every trusted entry through apply in order.
func openJournal(fs fault.FS, dir string, apply func(journalEntry)) (*rulesetJournal, error) {
	j := &rulesetJournal{}
	log, err := wal.Open(fs, filepath.Join(dir, "ruleset.journal"), journalMagic, maxJournalEntry, j.replay(apply))
	if err != nil {
		return nil, fmt.Errorf("registry: ruleset journal: %w", err)
	}
	j.log = log
	return j, nil
}

// replay returns the frame callback that decodes one entry, applies it and
// advances j.gen — ending the log at the first entry that does not parse or
// whose generation is not strictly above the previous one.
func (j *rulesetJournal) replay(apply func(journalEntry)) func(payload []byte) error {
	return func(payload []byte) error {
		entry, err := decodeEntry(payload)
		if err != nil || entry.gen <= j.gen {
			return wal.ErrStop
		}
		j.gen = entry.gen
		apply(entry)
		return nil
	}
}

func decodeEntry(payload []byte) (journalEntry, error) {
	c := wal.NewCursor(payload)
	e := journalEntry{gen: c.U64()}
	if err := c.Err(); err != nil {
		return journalEntry{}, fmt.Errorf("registry: journal entry generation: %w", err)
	}
	parsed, errs := rules.ParseDatedSet(bytes.NewReader(c.Rest()))
	for _, err := range errs {
		// The journal only ever holds deltas that parsed cleanly at Publish
		// time; an error here means corruption that beat the CRC, or a
		// same-rev conflict from a splice. Either way the entry is not
		// trustworthy.
		return journalEntry{}, fmt.Errorf("registry: journal entry gen %d: %w", e.gen, err)
	}
	e.delta = parsed
	return e, nil
}

// append durably writes one publication: the frame is written and fsynced
// before append returns, so a returned generation is a promise.
func (j *rulesetJournal) append(gen uint64, delta []rules.DatedRule) error {
	var text bytes.Buffer
	if err := rules.WriteDatedRuleset(&text, delta); err != nil {
		return err
	}
	payload := make([]byte, 8, 8+text.Len())
	binary.LittleEndian.PutUint64(payload, gen)
	payload = append(payload, text.Bytes()...)
	if len(payload) > maxJournalEntry {
		return fmt.Errorf("registry: delta of %d bytes exceeds journal entry cap", len(payload))
	}
	frame := wal.AppendFrame(make([]byte, 0, wal.FrameHeaderLen+len(payload)), payload)
	if err := j.log.AppendSync(frame); err != nil {
		return fmt.Errorf("registry: appending publish: %w", err)
	}
	j.gen = gen
	return nil
}

// tail applies entries another process appended since j.gen — the
// cross-process pickup path (waybackctl publishing into a directory a
// running daemon also has open).
func (j *rulesetJournal) tail(apply func(journalEntry)) error {
	return j.log.Tail(j.replay(apply))
}

func (j *rulesetJournal) Close() error { return j.log.Close() }
