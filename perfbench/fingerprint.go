package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

// fingerprint identifies the machine a result was measured on. Results
// whose fingerprints differ are not compared.
func fingerprint() map[string]string {
	return map[string]string{
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fingerprintDiff lists the keys on which two fingerprints differ, ""
// when they match.
func fingerprintDiff(a, b map[string]string) string {
	var diffs []string
	for k := range a {
		if a[k] != b[k] {
			diffs = append(diffs, fmt.Sprintf("%s: %q vs %q", k, a[k], b[k]))
		}
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("%s: missing vs %q", k, b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, "; ")
}
