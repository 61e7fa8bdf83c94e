package scenario

import (
	"bytes"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"hpsockets/internal/chaos"
)

// TestCanonicalForm pins the canonical serialization to
// testdata/canonical.golden: Marshal of the lifted form of every
// library file and of chaos.Generate(0..149), the exact bytes a
// shrunk reproducer can be printed as. Each lifted file must also be a
// Marshal fixed point. On a mismatch the regenerated golden is written
// to a temporary file whose path the failure names; a deliberate
// change of canonical form is a copy of that file, reviewed as a diff.
func TestCanonicalForm(t *testing.T) {
	var got bytes.Buffer
	emit := func(header string, f *File) {
		out := f.Marshal()
		back, err := Parse(header, out)
		if err != nil {
			t.Fatalf("%s: canonical form does not parse: %v\n%s", header, err, out)
		}
		if again := back.Marshal(); !bytes.Equal(again, out) {
			t.Fatalf("%s: not a fixed point:\n--- first:\n%s--- second:\n%s", header, out, again)
		}
		fmt.Fprintf(&got, "# %s\n%s", header, out)
	}
	lib := libraryFiles(t)
	names := make([]string, 0, len(lib))
	for name := range lib {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f, err := Parse(name, lib[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		emit(name, FromScenario(f.Scenario(), f.Name, f.Description, f.Assertions))
	}
	for seed := int64(0); seed < 150; seed++ {
		name := fmt.Sprintf("seed-%d", seed)
		emit(name, FromScenario(chaos.Generate(seed), name, "", nil))
	}

	want, err := os.ReadFile("testdata/canonical.golden")
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	regen, err := os.CreateTemp("", "canonical-*.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer regen.Close()
	if _, err := regen.Write(got.Bytes()); err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("canonical form differs at line %d:\n got %q\nwant %q\nregenerated golden: %s",
				i+1, g, w, regen.Name())
		}
	}
}
