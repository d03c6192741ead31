package grid

//lint:allow floatcompare the tests mark storage with exact values to see which matrix owns it

import (
	"testing"

	"cacqr/internal/lin"
)

func TestWorkspaceIsAStack(t *testing.T) {
	cb := &Cube{}
	ws := cb.Workspace(100)
	if again := cb.Workspace(5); again != ws {
		t.Fatalf("a second Workspace call gave %p, want the first, %p", again, ws)
	}
	a := ws.Matrix(4, 5)
	if a.Rows != 4 || a.Cols != 5 || a.Stride != 5 || len(a.Data) != 20 || cap(a.Data) != 20 {
		t.Fatalf("Matrix(4, 5) = %dx%d stride %d over %d (cap %d) values", a.Rows, a.Cols, a.Stride, len(a.Data), cap(a.Data))
	}
	for i := range a.Data {
		a.Data[i] = 1
	}
	mark := ws.Mark()
	b := ws.Matrix(6, 10)
	for i := range b.Data {
		b.Data[i] = 2
	}
	v := ws.View(b, 1, 2, 3, 4)
	if v.Rows != 3 || v.Cols != 4 || v.Stride != 10 || &v.Data[0] != &b.Data[12] {
		t.Fatalf("View(b, 1, 2, 3, 4) = %dx%d stride %d at %p, want 3x4 stride 10 at %p", v.Rows, v.Cols, v.Stride, &v.Data[0], &b.Data[12])
	}
	for _, x := range a.Data {
		if x != 1 {
			t.Fatal("a later Matrix overlaps an earlier one")
		}
	}
	ws.Release(mark)
	c := ws.Matrix(6, 10)
	if &c.Data[0] != &b.Data[0] {
		t.Error("Release did not give the words back: the next Matrix is elsewhere")
	}
	if c != b {
		t.Error("Release did not give the header back: the next Matrix has a new one")
	}
	if ws.HighWater() != 80 || ws.Overflows() != 0 {
		t.Errorf("high water %d, overflows %d, want 80 and 0", ws.HighWater(), ws.Overflows())
	}

	// Past the slab a request is served from the heap, counted, and
	// given back like any other.
	over := ws.Mark()
	d := ws.Matrix(5, 5)
	if len(d.Data) != 25 || ws.Overflows() != 1 || ws.HighWater() != 105 {
		t.Errorf("overflowing Matrix: %d values, %d overflows, high water %d, want 25, 1, 105", len(d.Data), ws.Overflows(), ws.HighWater())
	}
	for i := range d.Data {
		d.Data[i] = 3
	}
	for _, x := range c.Data {
		if x == 3 {
			t.Fatal("an overflowing Matrix overlaps the slab")
		}
	}
	e := ws.Matrix(4, 5) // the slab's last 20 words are still there
	if ws.Overflows() != 1 || ws.HighWater() != 125 {
		t.Errorf("after a fitting request: %d overflows, high water %d, want 1, 125", ws.Overflows(), ws.HighWater())
	}
	_ = e
	ws.Release(over)
	if f := ws.Matrix(4, 5); &f.Data[0] != &e.Data[0] || ws.HighWater() != 125 {
		t.Error("Release after an overflow did not restore the stack")
	}
}

func TestWorkspaceHeadersStayPut(t *testing.T) {
	ws := (&Cube{}).Workspace(1 << 12)
	var ms []*lin.Matrix
	for i := 0; i < 5*hdrChunk; i++ {
		m := ws.Matrix(1, 2)
		m.Data[0] = float64(i)
		ms = append(ms, m)
	}
	for i, m := range ms {
		if m.Rows != 1 || m.Cols != 2 || m.Data[0] != float64(i) {
			t.Fatalf("header %d was moved or overwritten by a later one: %dx%d, %v", i, m.Rows, m.Cols, m.Data[0])
		}
	}
}

func TestGridSharesItsCubesWorkspace(t *testing.T) {
	g := &Grid{Cube: &Cube{}}
	if ws := g.Workspace(10); ws != g.Cube.Workspace(99) {
		t.Error("a grid and its cube hold different workspaces")
	}
}
