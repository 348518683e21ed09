package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// fingerprint says where a result was measured; two results compare only
// when their fingerprints agree.
type fingerprint struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func (f fingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s cpu=%q kernel=%s", f.NumCPU, f.GOMAXPROCS, f.GoVersion, f.CPUModel, f.Kernel)
}

func hostFingerprint(procs int) fingerprint {
	f := fingerprint{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: procs, GoVersion: runtime.Version(),
		CPUModel: "unknown", Kernel: "unknown",
	}
	// Both files are Linux's; elsewhere the fields stay "unknown".
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				f.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		f.Kernel = strings.TrimSpace(string(b))
	}
	return f
}
