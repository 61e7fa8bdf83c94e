package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMalformedGoldens: every malformed scenario under
// testdata/malformed produces exactly the golden position-annotated
// error and exit code — parse errors map to exit 3, semantic errors
// to exit 4 — so tooling scripting `hps chaos validate` can rely on
// both.
func TestMalformedGoldens(t *testing.T) {
	dir := filepath.Join("testdata", "malformed")
	files, err := filepath.Glob(filepath.Join(dir, "*.yaml"))
	if err != nil || len(files) < 3 {
		t.Fatalf("want at least 3 malformed fixtures, got %v (%v)", files, err)
	}
	wd, _ := os.Getwd()
	defer os.Chdir(wd)
	// loadFile errors embed the path as given; goldens are recorded
	// relative to the malformed directory.
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		name := filepath.Base(f)
		t.Run(name, func(t *testing.T) {
			golden, err := os.ReadFile(strings.TrimSuffix(name, ".yaml") + ".err")
			if err != nil {
				t.Fatalf("missing golden: %v", err)
			}
			_, code, lerr := loadFile(name)
			if lerr == nil {
				t.Fatalf("%s parsed cleanly; want an error", name)
			}
			got := fmt.Sprintf("exit %d\n%s\n", code, lerr.Error())
			if got != string(golden) {
				t.Fatalf("golden mismatch for %s:\n--- got:\n%s--- want:\n%s",
					name, got, golden)
			}
		})
	}
}

// TestScenarioLibraryValidates: every checked-in scenario under
// scenarios/ parses, binds and compiles.
func TestScenarioLibraryValidates(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(files) < 6 {
		t.Fatalf("want at least 6 checked-in scenarios, got %v (%v)", files, err)
	}
	if code := validateCmd(files, io.Discard); code != exitOK {
		t.Fatalf("validate exited %d", code)
	}
}

// TestRunMissingTelemetryDir: a -telemetry directory that does not
// exist is a usage error (exit 2) found before any scenario runs, so
// nothing reaches stdout.
func TestRunMissingTelemetryDir(t *testing.T) {
	var out bytes.Buffer
	code := runCmd([]string{"-workers", "1",
		"-telemetry", filepath.Join(t.TempDir(), "missing"),
		filepath.Join("..", "..", "scenarios", "wan.yaml")}, &out)
	if got := out.Bytes(); code != exitUsage || len(got) != 0 {
		t.Fatalf("exit %d with %d bytes on stdout, want exit %d and none:\n%s", code, len(got), exitUsage, got)
	}
}
