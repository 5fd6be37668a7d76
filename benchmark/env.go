package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// envInfo records where the numbers were taken. The fsync-bound figures
// (fleet.fsync_ms_p50, eventstore.sync_ms_p50, freshness) belong to the
// scratch directory's filesystem, which in a sandbox is not a real device.
type envInfo struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OSArch     string `json:"os_arch"`
	Commit     string `json:"commit"`
	ScratchFS  string `json:"scratch_filesystem"`
}

func describeEnv(root string) envInfo {
	return envInfo{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit:     commitOf(root),
		ScratchFS:  filesystemOf(root),
	}
}

func (e envInfo) String() string {
	return fmt.Sprintf("environment: nproc=%d GOMAXPROCS=%d %s %s commit=%s scratch-fs=%s\n",
		e.NumCPU, e.GOMAXPROCS, e.GoVersion, e.OSArch, e.Commit, e.ScratchFS)
}

// commitOf reads the checked-out commit from .git without running git; a
// checkout that is not a repository (the driver's) reports BENCH_COMMIT or
// "unknown".
func commitOf(root string) string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref := strings.TrimSpace(string(head))
	if name, ok := strings.CutPrefix(ref, "ref: "); ok {
		raw, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(name)))
		if err != nil {
			return "unknown"
		}
		ref = strings.TrimSpace(string(raw))
	}
	if len(ref) > 12 {
		ref = ref[:12]
	}
	return ref
}

// filesystemOf names the filesystem type mounted at the longest mount point
// that prefixes dir, from /proc/mounts; "unknown" where that file is absent.
func filesystemOf(dir string) string {
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, fstype := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mount := f[1]
		if (dir == mount || strings.HasPrefix(dir, strings.TrimSuffix(mount, "/")+"/")) && len(mount) > len(best) {
			best, fstype = mount, f[2]
		}
	}
	return fstype
}
