package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

// TestAppendFrameGolden pins the frame bytes: u32 length | u32 CRC-32/IEEE |
// payload, little-endian. Every log on disk and every fleet and replica
// connection speaks exactly this.
func TestAppendFrameGolden(t *testing.T) {
	got := AppendFrame([]byte{0xAA}, []byte("wayback"))
	want := []byte{0xAA, 0x07, 0x00, 0x00, 0x00, 0xb1, 0x71, 0x43, 0xcf, 'w', 'a', 'y', 'b', 'a', 'c', 'k'}
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendFrame = % x\n           want % x", got, want)
	}
	if got := AppendFrame(nil, nil); !bytes.Equal(got, make([]byte, 8)) {
		t.Fatalf("empty frame = % x, want eight zero bytes", got)
	}
}

// TestCompatFixtures opens one file per log type, written by the commit
// before this package existed, with the magic and record cap hard-coded here
// — not imported from the owner, so a changed constant cannot hide behind
// itself. Each must replay exactly its recorded record count and keep every
// byte. (The owners' tests open the same files through their own code.)
func TestCompatFixtures(t *testing.T) {
	for _, tc := range []struct {
		file    string
		magic   string
		max     int
		records int
	}{
		{"store/events-00.log", "EVLOG\x00\x01\n", 1 << 20, 6},
		{"store/COMMITS.log", "EVCMT\x00\x01\n", 1 << 20, 3},
		{"store/amend.log", "EVAMD\x01\x01\n", 1 << 20, 2},
		{"store/FLEET-WATERMARKS.log", "FWMK\x00\x01\n\x00", 1 << 20, 4},
		{"sensor/spool.log", "FSPL\x00\x01\n\x00", 1 << 20, 3},
		{"registry/ruleset.journal", "RSJRNL\x01\n", 64 << 20, 2},
		{"registry/digests.log", "SDIG\x01\x01\x01\n", 1 << 20, 4},
	} {
		raw, err := os.ReadFile(filepath.Join("testdata", "compat", tc.file))
		if err != nil {
			t.Fatal(err)
		}
		fs := fault.NewSimFS(1, fault.Profile{})
		if err := fs.WriteFile(tc.file, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		n := 0
		l, err := Open(fs, tc.file, [8]byte([]byte(tc.magic)), tc.max, func([]byte) error { n++; return nil })
		if err != nil {
			t.Errorf("%s: %v", tc.file, err)
			continue
		}
		if n != tc.records || l.Size() != int64(len(raw)) {
			t.Errorf("%s: replayed %d records over %d bytes, want %d over %d", tc.file, n, l.Size(), tc.records, len(raw))
		}
		l.Close()
	}
}
