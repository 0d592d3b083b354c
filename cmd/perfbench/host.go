package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

// hostBlock identifies where a result was measured. Two results are
// comparable only when every field except Commit matches: the commit is
// what an A/B comparison varies.
type hostBlock struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	LedgerFS   string `json:"ledger_fs"`
	// Commit is the git commit when the checkout is a repository, else
	// "src:" and a digest of the module's Go sources and test data.
	Commit string `json:"commit"`
}

func currentHost(root, ledgerDir string) hostBlock {
	return hostBlock{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		LedgerFS:   fsType(ledgerDir),
		Commit:     commitOf(root),
	}
}

// sameHost reports the fields that differ between two host blocks,
// ignoring the commit.
func sameHost(a, b hostBlock) []string {
	var diff []string
	check := func(name string, x, y any) {
		if x != y {
			diff = append(diff, fmt.Sprintf("%s: %v vs %v", name, x, y))
		}
	}
	check("nproc", a.NProc, b.NProc)
	check("gomaxprocs", a.GOMAXPROCS, b.GOMAXPROCS)
	check("cpu_model", a.CPUModel, b.CPUModel)
	check("go_version", a.GoVersion, b.GoVersion)
	check("ledger_fs", a.LedgerFS, b.LedgerFS)
	return diff
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// fsType names the filesystem holding dir, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs",
		0x01021994: "tmpfs", 0x794C7630: "overlayfs", 0x6969: "nfs",
		0x65735546: "fuse", 0x2FC12FC1: "zfs", 0x858458F6: "ramfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// commitOf returns the checkout's git commit, or a digest of its Go
// sources and test data when it is not a git repository.
func commitOf(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err == nil {
		out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
		if err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only weakens the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".json") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		rel, _ := filepath.Rel(root, p)
		data, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "src:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// compareReports prints, for each metric two full reports share, the
// ratio b/a. It refuses reports measured on different hosts or for
// different workloads or tracing modes.
func compareReports(w io.Writer, pathA, pathB string) error {
	var a, b report
	for _, x := range []struct {
		path string
		r    *report
	}{{pathA, &a}, {pathB, &b}} {
		data, err := os.ReadFile(x.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(data, x.r); err != nil {
			return fmt.Errorf("%s: %w", x.path, err)
		}
	}
	if d := sameHost(a.Host, b.Host); len(d) > 0 {
		return fmt.Errorf("refusing to compare results from different hosts: %s", strings.Join(d, "; "))
	}
	if a.Workload != b.Workload || a.Trace != b.Trace {
		return fmt.Errorf("refusing to compare %s (trace %v) with %s (trace %v)", a.Workload, a.Trace, b.Workload, b.Trace)
	}
	fmt.Fprintf(w, "%s: %s -> %s on %d x %s\n", a.Workload, a.Host.Commit, b.Host.Commit, a.Host.NProc, a.Host.CPUModel)
	names := make([]string, 0, len(a.Metrics))
	for n := range a.Metrics {
		if _, ok := b.Metrics[n]; ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		x, y := a.Metrics[n], b.Metrics[n]
		ratio := "n/a"
		if x.Value != 0 {
			ratio = fmt.Sprintf("%.3f", y.Value/x.Value)
		}
		fmt.Fprintf(w, "  %-28s %14.6g %14.6g %-8s b/a %s\n", n, x.Value, y.Value, x.Unit, ratio)
	}
	return nil
}
