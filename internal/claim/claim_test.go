package claim

import (
	"strings"
	"testing"

	"repro/internal/sqldb"
	"repro/internal/textutil"
)

func sampleClaim() *Claim {
	sentence := "The two fatal accidents involving Malaysia Airlines this year were the first for the carrier since 1995."
	span, _ := textutil.FindValueSpan(sentence, "two")
	return &Claim{
		ID:       "c1",
		Sentence: sentence,
		Span:     span,
		Context:  "Intro text. " + sentence + " Outro text.",
		Value:    "two",
	}
}

func TestIsNumericAndValueType(t *testing.T) {
	c := sampleClaim()
	if !c.IsNumeric() || c.ValueType() != "numeric" {
		t.Errorf("spelled-out number should be numeric: %v %q", c.IsNumeric(), c.ValueType())
	}
	c.Value = "Malaysia Airlines"
	if c.IsNumeric() || c.ValueType() != "" {
		t.Errorf("textual value misclassified: %v %q", c.IsNumeric(), c.ValueType())
	}
}

func TestMasked(t *testing.T) {
	c := sampleClaim()
	masked, ctx := c.Masked()
	if strings.Contains(masked, " two ") {
		t.Errorf("value leaked: %q", masked)
	}
	if !strings.Contains(masked, " x ") {
		t.Errorf("mask token missing: %q", masked)
	}
	if !strings.Contains(ctx, masked) || !strings.Contains(ctx, "Intro text.") {
		t.Errorf("context masking wrong: %q", ctx)
	}
}

func TestCloneDocuments(t *testing.T) {
	db := sqldb.NewDatabase("d")
	orig := []*Document{{
		ID:     "doc",
		Domain: "538",
		Data:   db,
		Claims: []*Claim{
			{ID: "a", Value: "1", Result: Result{Verified: true, Correct: false, Query: "SELECT 1"}},
			{ID: "b", Value: "2", Gold: Gold{Correct: true}},
		},
	}}
	clone := CloneDocuments(orig)
	if len(clone) != 1 || len(clone[0].Claims) != 2 {
		t.Fatalf("clone shape: %+v", clone)
	}
	// Results are cleared; gold labels and identity are preserved; the
	// database is shared.
	if clone[0].Claims[0].Result.Verified || clone[0].Claims[0].Result.Query != "" {
		t.Error("clone kept verification results")
	}
	if !clone[0].Claims[1].Gold.Correct || clone[0].Claims[1].ID != "b" {
		t.Error("clone lost gold/identity")
	}
	if clone[0].Data != db {
		t.Error("clone must share the immutable database")
	}
	// Mutating the clone must not touch the original.
	clone[0].Claims[0].Result.Verified = true
	clone[0].Claims[0].Value = "mutated"
	if orig[0].Claims[0].Value == "mutated" {
		t.Error("clone aliases original claims")
	}
}

func TestCorpusCounts(t *testing.T) {
	docs := []*Document{
		{Claims: []*Claim{{Gold: Gold{Correct: true}}, {Gold: Gold{Correct: false}}}},
		{Claims: []*Claim{{Gold: Gold{Correct: false}}}},
	}
	if TotalClaims(docs) != 3 {
		t.Errorf("TotalClaims = %d", TotalClaims(docs))
	}
}

func TestDocumentString(t *testing.T) {
	d := &Document{ID: "x", Domain: "538", Data: sqldb.NewDatabase("db"), Claims: []*Claim{{}}}
	s := d.String()
	if !strings.Contains(s, "x") || !strings.Contains(s, "1 claims") {
		t.Errorf("String = %q", s)
	}
}
