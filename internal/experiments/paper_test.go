package experiments

import (
	"bytes"
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/paper.golden from the current output")

const paperGolden = "testdata/paper.golden"

// measuredCmd is the command a Measured block of EXPERIMENTS.md is headed by.
var measuredCmd = regexp.MustCompile("`treads-experiments -only ([A-Za-z0-9]+)`")

// TestPaperGolden pins every table cmd/treads-experiments prints: the
// output of all of Paper must equal testdata/paper.golden byte for byte,
// and the tables must be titled with their rows' IDs, in Paper's order.
// After a deliberate change, regenerate the file with
//
//	go test ./internal/experiments -run TestPaperGolden -update
//
// and bring EXPERIMENTS.md's Measured blocks in line with it.
func TestPaperGolden(t *testing.T) {
	var got bytes.Buffer
	if err := Write(&got, Paper, false); err != nil {
		t.Fatal(err)
	}
	var titles []string
	for _, line := range strings.Split(got.String(), "\n") {
		if strings.HasPrefix(line, "== ") {
			titles = append(titles, line)
		}
	}
	if len(titles) != len(Paper) {
		t.Fatalf("Paper's %d rows print %d tables", len(Paper), len(titles))
	}
	for i, run := range Paper {
		if !strings.HasPrefix(titles[i], "== "+run.ID+" ") {
			t.Errorf("row %s prints a table titled %q", run.ID, titles[i])
		}
	}

	if *update {
		if err := os.WriteFile(paperGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("output differs from %s at line %d:\n got: %q\nwant: %q\n(rerun with -update after a deliberate change)", paperGolden, i+1, g, w)
		}
	}
}

func TestSelect(t *testing.T) {
	all, err := Select("")
	if err != nil || len(all) != len(Paper) {
		t.Fatalf("Select(\"\") = %d rows, %v; want all %d", len(all), err, len(Paper))
	}
	runs, err := Select("E3,F1")
	if err != nil || len(runs) != 2 || runs[0].ID != "E3" || runs[1].ID != "F1" {
		t.Fatalf("Select(\"E3,F1\") = %v, %v", runs, err)
	}
	_, err = Select("E1,E99")
	if err == nil || !strings.Contains(err.Error(), `"E99"`) || !strings.Contains(err.Error(), "F1,E1,E2,") {
		t.Fatalf("Select(\"E1,E99\") error = %v, want it to name E99 and list the valid IDs", err)
	}
}

// TestExperimentsDocQuotesTheGolden keeps EXPERIMENTS.md from drifting: each
// **Measured** paragraph names the `treads-experiments -only <ID>` command
// and is followed, before the next section, by a fenced block that is a
// verbatim excerpt of testdata/paper.golden.
func TestExperimentsDocQuotesTheGolden(t *testing.T) {
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(paperGolden)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(doc), "\n")
	quoted := map[string]bool{}
	for i, line := range lines {
		if !strings.HasPrefix(line, "**Measured**") {
			continue
		}
		m := measuredCmd.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("EXPERIMENTS.md:%d: a Measured block names no `treads-experiments -only <ID>` command: %s", i+1, line)
		} else {
			quoted[m[1]] = true
		}
		block, ok := fencedAfter(lines[i+1:])
		if !ok {
			t.Errorf("EXPERIMENTS.md:%d: a Measured block has no fenced excerpt before the next section", i+1)
			continue
		}
		if !strings.Contains(string(golden), block) {
			t.Errorf("EXPERIMENTS.md:%d: the Measured excerpt is not in %s:\n%s", i+1, paperGolden, block)
		}
	}
	for _, run := range Paper {
		if !quoted[run.ID] {
			t.Errorf("EXPERIMENTS.md has no Measured block for `treads-experiments -only %s`", run.ID)
		}
	}
}

// fencedAfter returns the body of the first fenced block in lines, each
// line ended by a newline, unless a "## " heading comes first.
func fencedAfter(lines []string) (string, bool) {
	var body strings.Builder
	in := false
	for _, line := range lines {
		switch {
		case strings.HasPrefix(line, "```"):
			if in {
				return body.String(), true
			}
			in = true
		case in:
			body.WriteString(line + "\n")
		case strings.HasPrefix(line, "## "):
			return "", false
		}
	}
	return "", false
}
