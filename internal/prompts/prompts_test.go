package prompts

import (
	"strings"
	"testing"
)

const schemaSQL = `CREATE TABLE "airlines" ("airline" TEXT, "fatal_accidents_00_14" INTEGER);` + "\n"

func TestOneShotStructure(t *testing.T) {
	p := OneShot("The x fatal accidents claim.", "numeric", schemaSQL,
		Sample("sample claim", "SELECT 1"), "context paragraph")
	for _, want := range []string{
		ClaimOpen, ClaimClose, "numeric", SchemaIntro, "CREATE TABLE",
		SQLFence, SampleIntro, ContextIntro, "context paragraph", "percentages",
	} {
		if !strings.Contains(p, want) {
			t.Errorf("prompt missing %q", want)
		}
	}
}

func TestAgentStructure(t *testing.T) {
	f := Fill{Claim: "claim x.", Schema: schemaSQL, Context: "ctx"}
	p := f.Agent("0")
	for _, want := range []string{AgentMarker, ToolUniqueValues, ToolQuery, "Thought:", "Final Answer:"} {
		if !strings.Contains(p, want) {
			t.Errorf("agent prompt missing %q", want)
		}
	}
}

func TestExtractClaim(t *testing.T) {
	p := OneShot("My masked claim x.", "numeric", schemaSQL, "", "ctx")
	masked, typ, ok := ExtractClaim(p)
	if !ok || masked != "My masked claim x." || typ != "numeric" {
		t.Errorf("extract = %q %q %v", masked, typ, ok)
	}
	p = OneShot("Textual claim x.", "", schemaSQL, "", "ctx")
	_, typ, ok = ExtractClaim(p)
	if !ok || typ != "" {
		t.Errorf("empty type extract = %q %v", typ, ok)
	}
	if _, _, ok := ExtractClaim("no markers here"); ok {
		t.Error("extracted claim from unmarked text")
	}
}

func TestExtractContext(t *testing.T) {
	p := OneShot("c x.", "", schemaSQL, "", "the relevant paragraph")
	if got := ExtractContext(p); got != "the relevant paragraph" {
		t.Errorf("context = %q", got)
	}
	if got := ExtractContext("no marker"); got != "" {
		t.Errorf("absent context = %q", got)
	}
}

func TestHasSample(t *testing.T) {
	with := Locate(OneShot("c x.", "", schemaSQL, Sample("m", "SELECT 1"), "ctx"))
	without := Locate(OneShot("c x.", "", schemaSQL, "", "ctx"))
	if !with.HasSample() || without.HasSample() {
		t.Error("sample detection")
	}
}

func TestExtractSQL(t *testing.T) {
	cases := []struct {
		in   string
		want string
		ok   bool
	}{
		{"text\n```sql\nSELECT 1\n```\nmore", "SELECT 1", true},
		{"```sql\nSELECT a FROM t WHERE b = 'x'\n```", "SELECT a FROM t WHERE b = 'x'", true},
		{"no fence but\nSELECT 2 FROM t\nhere", "SELECT 2 FROM t", true},
		{"only lowercase\nselect 3", "select 3", true},
		{"nothing SQL-ish at all", "", false},
		{"```sql\n\n```", "", false},
	}
	for _, c := range cases {
		got, ok := ExtractSQL(c.in)
		if ok != c.ok || got != c.want {
			t.Errorf("ExtractSQL(%q) = %q,%v want %q,%v", c.in, got, ok, c.want, c.ok)
		}
	}
}

func TestExtractSection(t *testing.T) {
	if s, ok := ExtractSection("a [x] b", "[", "]"); !ok || s != "x" {
		t.Errorf("section = %q %v", s, ok)
	}
	if _, ok := ExtractSection("a [x b", "[", "]"); ok {
		t.Error("unclosed section extracted")
	}
	if _, ok := ExtractSection("a x] b", "[", "]"); ok {
		t.Error("unopened section extracted")
	}
}
