package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
)

// environment records the machine a result was measured on; a result file
// without it cannot be compared with another.
type environment struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Datadir    string `json:"datadir"`
	FSType     string `json:"fs_type"`
}

// Filesystem magic numbers (statfs f_type) of the filesystems a datadir is
// likely to sit on.
var fsNames = map[int64]string{
	0xEF53:     "ext2/ext3/ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x794C7630: "overlayfs",
	0x01021994: "tmpfs",
	0x858458F6: "ramfs",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

// readEnvironment describes the machine and the filesystem under datadir.
// It refuses a memory-backed datadir: an fsync there costs nothing, and
// every storage metric would describe a disk that does not exist.
func readEnvironment(datadir string) (environment, error) {
	env := environment{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Datadir: datadir, CPU: "unknown",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				env.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	var st syscall.Statfs_t
	if err := syscall.Statfs(datadir, &st); err != nil {
		return env, fmt.Errorf("statfs %s: %w", datadir, err)
	}
	magic := int64(st.Type) & 0xFFFFFFFF
	env.FSType = fsNames[magic]
	if env.FSType == "" {
		env.FSType = fmt.Sprintf("0x%X", magic)
	}
	if env.FSType == "tmpfs" || env.FSType == "ramfs" {
		return env, fmt.Errorf("datadir %s is on %s: storage metrics need a disk-backed filesystem (use -workdir)", datadir, env.FSType)
	}
	return env, nil
}
