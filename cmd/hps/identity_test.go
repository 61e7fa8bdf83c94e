package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// manifestPath pins every artifact TestIdentity produces: one
// "sha256 bytes name" line per file, sorted by name.
const manifestPath = "testdata/identity.txt"

// TestIdentity runs a fixed set of subcommand invocations in-process
// and compares every artifact they produce — each stdout and each file
// a command writes — with the hash and size recorded in the manifest.
// The rows cover every figure family at -quick scale except 8 and 9
// (which would more than double the run time), the fig 7a telemetry
// and profile exports (whose stdout must equal the uninstrumented
// figure), the chaos seed sweep in full, the scenario library
// (validate, and run with telemetry), and both transports' Chrome
// trace exports. -workers is left at its default, so `go test -cpu N`
// sets the worker count.
//
// On a mismatch the test names each differing artifact and writes the
// whole regenerated manifest to a temporary file that outlives the
// test. A deliberate re-baseline is a copy of that file over the
// manifest, reviewed as a diff.
func TestIdentity(t *testing.T) {
	if raceEnabled {
		t.Skip("the rows take minutes under the race detector; the determinism they pin is not a race property")
	}
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	scenarios, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(scenarios) == 0 {
		t.Fatalf("no scenarios found: %v", err)
	}
	if err := os.Mkdir(at("chaos-run"), 0o755); err != nil {
		t.Fatal(err)
	}

	type row struct {
		name string // stdout is written to name + ".txt"
		cmd  func(args []string, stdout io.Writer) int
		args []string
	}
	var rows []row
	for _, fig := range []string{"2", "4a", "4b", "7b", "micro", "pp", "10", "11", "fault", "overload", "recovery"} {
		rows = append(rows, row{"figures-" + fig, figuresCmd, []string{"-quick", "-fig", fig}})
	}
	rows = append(rows,
		row{"figures-7a", figuresCmd, []string{"-quick", "-fig", "7a",
			"-telemetry", at("figures-7a.telemetry.txt"), "-profile", at("figures-7a.profile.txt")}},
		// -v: the summary line alone does not change when a report does.
		row{"chaos-seeds", chaosCmd, []string{"-seeds", "150", "-v"}},
		// Relative paths: validate echoes them.
		row{"chaos-validate", chaosCmd, append([]string{"validate"}, scenarios...)},
		row{"chaos-run", chaosCmd, append([]string{"run", "-telemetry", at("chaos-run")}, scenarios...)},
		row{"trace-socketvia", traceCmd, []string{"-out", at("trace-socketvia.json")}},
		row{"trace-tcp", traceCmd, []string{"-kind", "tcp", "-out", at("trace-tcp.json")}},
	)
	for _, r := range rows {
		f, err := os.Create(at(r.name + ".txt"))
		if err != nil {
			t.Fatal(err)
		}
		code := r.cmd(r.args, f)
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if code != exitOK {
			t.Errorf("%s %s: exit %d", r.name, strings.Join(r.args, " "), code)
		}
	}

	got, err := manifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	want := parseManifest(string(data))
	var diffs []string
	for name, line := range got {
		if w, ok := want[name]; !ok {
			diffs = append(diffs, "new artifact "+line)
		} else if w != line {
			diffs = append(diffs, fmt.Sprintf("%s:\n\twant %s\n\tgot  %s", name, w, line))
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			diffs = append(diffs, "missing artifact "+name)
		}
	}
	if len(diffs) == 0 {
		return
	}
	sort.Strings(diffs)
	out, err := os.CreateTemp("", "identity-*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.WriteString(out, renderManifest(got)); err != nil {
		t.Fatal(err)
	}
	if err := out.Close(); err != nil {
		t.Fatal(err)
	}
	t.Errorf("%d artifacts differ from %s:\n%s\nregenerated manifest: %s",
		len(diffs), manifestPath, strings.Join(diffs, "\n"), out.Name())
}

// manifest hashes every regular file under dir, keyed by its
// slash-separated path relative to dir.
func manifest(dir string) (map[string]string, error) {
	lines := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		name := filepath.ToSlash(rel)
		lines[name] = fmt.Sprintf("%x %d %s", sha256.Sum256(data), len(data), name)
		return nil
	})
	return lines, err
}

func parseManifest(data string) map[string]string {
	lines := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 {
			lines[f[2]] = line
		}
	}
	return lines
}

func renderManifest(lines map[string]string) string {
	names := make([]string, 0, len(lines))
	for name := range lines {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		b.WriteString(lines[name] + "\n")
	}
	return b.String()
}
