package main

import (
	"reflect"
	"testing"
)

func TestParseGates(t *testing.T) {
	const makefile = `GO ?= go
.PHONY: shard fuzz-smoke bench

# A comment naming -run 'Nothing' ./nowhere is not a recipe.
shard:
	$(GO) test -race -run 'Shard|Ring' \
		./internal/shard ./internal/serve \
		./cmd/cedar-serve

fuzz-smoke:
	$(GO) test -run NONE -fuzz FuzzParse$$ -fuzztime $(FUZZTIME) ./internal/sqldb

bench:
	$(GO) test -bench . -benchmem ./...
	$(GO) run ./benchmark -quick
`
	want := []gate{
		{target: "shard", regex: "Shard|Ring", packages: []string{"./internal/shard", "./internal/serve", "./cmd/cedar-serve"}},
		{target: "fuzz-smoke", regex: "FuzzParse$", packages: []string{"./internal/sqldb"}},
	}
	if got := parseGates(makefile); !reflect.DeepEqual(got, want) {
		t.Fatalf("parseGates = %+v\nwant %+v", got, want)
	}
}

func TestEmptyPackages(t *testing.T) {
	const out = `TestShardA
TestRingB
ok  	repro/internal/shard	0.004s
ok  	repro/cmd/cedar	0.003s
FuzzRingAssign
ok  	repro/internal/serve	0.002s
?   	repro/internal/cliutil	[no test files]
`
	want := []string{"repro/cmd/cedar", "repro/internal/cliutil"}
	if got := emptyPackages(out); !reflect.DeepEqual(got, want) {
		t.Fatalf("emptyPackages = %v, want %v", got, want)
	}
}
