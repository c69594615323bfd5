package kit

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// want-comment syntax, after x/tools' analysistest:
//
//	code under test // want "regexp" "another regexp"
//
// Each regexp must match at least one diagnostic reported on that line
// (after //kmvet:ignore suppression), and every diagnostic must be claimed
// by some want comment. Waivers (justified ignores) are not diagnostics,
// so a suppressed line simply carries no want comment.
var wantRe = regexp.MustCompile("(?:\"((?:[^\"\\\\]|\\\\.)*)\")|(?:`([^`]*)`)")

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// TestDir loads dir as a standalone package (or, when it holds a go.mod, as
// a module's ./...), runs the analyzers, and checks the diagnostics against
// the corpus's want comments.
func TestDir(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	load := LoadDir
	if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
		load = func(dir string) (*Corpus, error) { return Load(dir, []string{"./..."}) }
	}
	c, err := load(dir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	diags, _, err := RunAnalyzers(c, analyzers)
	if err != nil {
		t.Fatalf("running analyzers: %v", err)
	}

	var wants []*expectation
	for _, pkg := range c.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, cm := range cg.List {
					text := cm.Text
					i := strings.Index(text, "// want ")
					if i < 0 {
						continue
					}
					pos := c.Fset.Position(cm.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(text[i+len("// want "):], -1) {
						pat := m[1]
						if pat == "" {
							pat = m[2]
						} else {
							pat = strings.ReplaceAll(pat, `\"`, `"`)
						}
						re, err := regexp.Compile(pat)
						if err != nil {
							t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, pat, err)
						}
						wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re})
					}
				}
			}
		}
	}

	matched := make([]bool, len(diags))
	for _, w := range wants {
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != w.file || d.Pos.Line != w.line {
				continue
			}
			if w.re.MatchString(d.Message) {
				matched[i] = true
				w.hit = true
				break
			}
		}
		if !w.hit {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, fmt.Sprintf("  %s", d))
		}
		t.Logf("all diagnostics:\n%s", strings.Join(all, "\n"))
	}
}
