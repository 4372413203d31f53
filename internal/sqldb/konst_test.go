package sqldb

import (
	"fmt"
	"testing"
)

// TestConstantOperandStaysConstant pins the typed filter path of a claim
// predicate with a computed literal: in `units > -5` over an image past one
// scan window, the compiled operand -5 must evaluate to one constant vector,
// which is what lets vcmp.sel compare the column's int64 slice against a
// scalar (selNum) instead of boxing every row.
func TestConstantOperandStaysConstant(t *testing.T) {
	const n = 2 * windowRows
	db := NewDatabase("konst")
	tab := NewTable("sales", "name", "units")
	want := 0
	for i := 0; i < n; i++ {
		tab.MustAppendRow(Text(fmt.Sprintf("acct-%05d", i)), Int(int64(i%20-10)))
		if i%20-10 > -5 {
			want++
		}
	}
	db.AddTable(tab)
	const sql = `SELECT COUNT(*) FROM sales WHERE units > -5`
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	p := compilePlan(db, stmt)
	if len(p.residual) != 1 { // unary minus may raise an error, so it is not pushed
		t.Fatalf("%s: want one residual filter, got %d", sql, len(p.residual))
	}
	cmp, ok := p.residual[0].(*vcmp)
	if !ok {
		t.Fatalf("filter is %T, want *vcmp", p.residual[0])
	}
	images := make([]*tableImage, 1)
	db.snapshotTables(p.names, make([]*Table, 1), images)
	b := &vbatch{n: images[0].n, scans: []vside{{cols: images[0].cols}}, cols: make([]*Vec, 2)}
	if b.n <= windowRows {
		t.Fatalf("image has %d rows, want more than %d", b.n, windowRows)
	}
	ctx := takeCtx()
	defer ctx.release()
	ctx.db, ctx.p = db, p
	v, err := cmp.r.eval(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !v.konst || v.At(0).String() != "-5" {
		t.Errorf("operand -5 evaluates to konst=%v %v, want the constant -5", v.konst, v.At(0))
	}
	got, err := QueryScalar(db, sql)
	if err != nil || got.String() != fmt.Sprint(want) {
		t.Errorf("%s = %v, %v; want %d", sql, got, err, want)
	}
}
