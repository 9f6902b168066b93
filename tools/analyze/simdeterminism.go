package main

// simdeterminism: sim-driven packages must be bit-deterministic so a
// torture failure replays from its seed alone (DESIGN.md §12). Three
// classes of construct silently break that:
//
//   - wall-clock reads and host sleeps (time.Now, time.Sleep, ...):
//     virtual time comes from the sim engine, never the host;
//   - the global math/rand stream (rand.Intn, ...): shared state
//     seeded from outside the run — only seeded rand.New streams
//     derive from the run's seed;
//   - map iteration feeding order-sensitive consumers: Go randomizes
//     range-over-map order, so anything it feeds — simulated work,
//     channel sends, collected slices — reorders between runs unless
//     the keys are sorted first.
//
// The map rule is necessarily heuristic; it flags a map-range body
// that (a) performs simulated work (calls anything taking *sim.Proc —
// the repo's marker for schedule-relevant activity), (b) sends on a
// channel, or (c) appends to a slice declared outside the loop that
// is never passed to sort/slices sorting in the same function.

import (
	"go/ast"
	"go/types"
)

// simPackages names the packages whose execution must be
// bit-deterministic under a fixed seed (matched by package name so
// fixtures can stand in for the real tree).
var simPackages = map[string]bool{
	"sim": true, "hw": true, "fabric": true, "mem": true, "vm": true,
	"core": true, "gm": true, "gmkrc": true, "mx": true, "sockets": true,
	"netpipe": true, "kernel": true, "orfs": true, "orfa": true,
	"nbd": true, "rfsrv": true, "memfs": true, "torture": true,
	"figures": true, "rig": true,
}

// forbiddenTimeFuncs are the package time functions that read the
// host clock or block on it.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"AfterFunc": true,
}

// allowedRandFuncs are the math/rand constructors that build seeded
// streams — the only package-level entry points a deterministic run
// may use.
var allowedRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
}

var simDeterminism = &Analyzer{
	Name: "simdeterminism",
	Doc:  "forbid wall-clock, global math/rand and order-sensitive map iteration in sim-driven packages",
	Run:  runSimDeterminism,
}

func runSimDeterminism(p *Pass) {
	if !simPackages[p.Pkg.Name()] {
		return
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				p.checkDeterministicCall(n)
			case *ast.FuncDecl:
				if n.Body != nil {
					p.checkMapRanges(n)
				}
				return true
			}
			return true
		})
	}
}

// checkDeterministicCall flags wall-clock reads and global math/rand
// use.
func (p *Pass) checkDeterministicCall(call *ast.CallExpr) {
	if name, ok := p.isPkgCall(call, "time"); ok && forbiddenTimeFuncs[name] {
		p.report(call.Pos(), "time.%s reads the host clock; sim-driven code must use the engine's virtual time", name)
		return
	}
	for _, path := range []string{"math/rand", "math/rand/v2"} {
		if name, ok := p.isPkgCall(call, path); ok && !allowedRandFuncs[name] {
			p.report(call.Pos(), "global rand.%s draws from shared non-seeded state; use a seeded rand.New stream derived from the run's seed", name)
			return
		}
	}
}

// checkMapRanges inspects every range-over-map loop in one function
// for order-sensitive consumption of the iteration.
func (p *Pass) checkMapRanges(fd *ast.FuncDecl) {
	sorted := p.sortedSlices(fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := p.Info.Types[rng.X]
		if !ok || !isMapType(tv.Type) {
			return true
		}
		p.checkMapRangeBody(fd, rng, sorted)
		return true
	})
}

// sortedSlices collects the objects of every slice passed to a
// sort/slices sorting function anywhere in the function — appending
// map keys to one of these and sorting before use is the blessed
// deterministic-iteration idiom.
func (p *Pass) sortedSlices(fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sortCall := false
		if _, ok := p.isPkgCall(call, "sort"); ok {
			sortCall = true
		}
		if _, ok := p.isPkgCall(call, "slices"); ok {
			sortCall = true
		}
		if !sortCall || len(call.Args) == 0 {
			return true
		}
		if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
			if obj := p.Info.Uses[id]; obj != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// checkMapRangeBody flags the order-sensitive constructs inside one
// map-range body.
func (p *Pass) checkMapRangeBody(fd *ast.FuncDecl, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			p.report(n.Pos(), "channel send inside map iteration: receiver observes randomized map order; iterate sorted keys instead")
		case *ast.CallExpr:
			if p.isChanSend(n) {
				p.report(n.Pos(), "channel send inside map iteration: receiver observes randomized map order; iterate sorted keys instead")
				return true
			}
			if p.doesSimWork(n) {
				p.report(n.Pos(), "simulated work inside map iteration: the event schedule absorbs randomized map order and seed replay diverges; iterate sorted keys instead")
				return true
			}
		case *ast.AssignStmt:
			p.checkRangeAppend(n, rng, sorted)
		}
		return true
	})
}

// isChanSend reports whether call is a Send method call on a
// sim.Chan (the repo's cooperative channel).
func (p *Pass) isChanSend(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Send" {
		return false
	}
	tv, ok := p.Info.Types[sel.X]
	return ok && typeIs(tv.Type, "sim", "Chan")
}

// doesSimWork reports whether call passes a *sim.Proc — the
// repository-wide marker that a call advances virtual time or
// produces wire traffic, making its invocation order part of the
// event schedule.
func (p *Pass) doesSimWork(call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		if tv, ok := p.Info.Types[arg]; ok && typeIs(tv.Type, "sim", "Proc") {
			return true
		}
	}
	return false
}

// checkRangeAppend flags `outer = append(outer, ...)` inside a
// map-range loop when outer is declared outside the loop and never
// sorted in the enclosing function.
func (p *Pass) checkRangeAppend(as *ast.AssignStmt, rng *ast.RangeStmt, sorted map[types.Object]bool) {
	for i, rhs := range as.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "append" {
			continue
		}
		if i >= len(as.Lhs) && len(as.Lhs) != 1 {
			continue
		}
		lhs := as.Lhs[0]
		if len(as.Lhs) > i {
			lhs = as.Lhs[i]
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			continue
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			obj = p.Info.Defs[id]
		}
		if obj == nil {
			continue
		}
		// Declared inside the loop body: the collection is per-entry
		// scratch, not an ordered product of the iteration.
		if rng.Body.Pos() <= obj.Pos() && obj.Pos() <= rng.Body.End() {
			continue
		}
		if sorted[obj] {
			continue
		}
		p.report(as.Pos(), "append to %s under map iteration without sorting it afterwards: the slice order is randomized per run; sort it (or the map keys) before use", id.Name)
	}
}
