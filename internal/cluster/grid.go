package cluster

import "fmt"

// Grid arranges p ranks as the p/c × c process grid of Section 5.2:
// rank = i*c + j sits at grid position P(i, j). Block rows of the 1.5D
// partitioned matrices live on process rows (replicated across the c
// members of a row); process columns each hold one full copy of every
// block-row-partitioned matrix.
type Grid struct {
	P, C int
	Rows int // P / C

	rowComms []*Comm // indexed by grid row i: members {i*c .. i*c+c-1}
	colComms []*Comm // indexed by grid column j: members {j, c+j, ...}
	world    *Comm
}

// NewGrid builds the row and column communicators for a p/c × c grid.
// c must divide p.
func NewGrid(cl *Cluster, p, c int) *Grid {
	if p != cl.N {
		panic(fmt.Sprintf("cluster: grid over %d ranks on a %d-rank cluster", p, cl.N))
	}
	if c <= 0 || p%c != 0 {
		panic(fmt.Sprintf("cluster: replication factor %d must divide p=%d", c, p))
	}
	g := &Grid{P: p, C: c, Rows: p / c}
	for i := 0; i < g.Rows; i++ {
		members := make([]int, c)
		for j := 0; j < c; j++ {
			members[j] = i*c + j
		}
		g.rowComms = append(g.rowComms, cl.NewComm(members))
	}
	for j := 0; j < c; j++ {
		members := make([]int, g.Rows)
		for i := 0; i < g.Rows; i++ {
			members[i] = i*c + j
		}
		g.colComms = append(g.colComms, cl.NewComm(members))
	}
	g.world = cl.World()
	return g
}

// RowIndex returns the grid row i of a rank.
func (g *Grid) RowIndex(rank int) int { return rank / g.C }

// ColIndex returns the grid column j of a rank.
func (g *Grid) ColIndex(rank int) int { return rank % g.C }

// RowComm returns the communicator over the rank's process row P(i,:).
func (g *Grid) RowComm(rank int) *Comm { return g.rowComms[g.RowIndex(rank)] }

// ColComm returns the communicator over the rank's process column
// P(:,j).
func (g *Grid) ColComm(rank int) *Comm { return g.colComms[g.ColIndex(rank)] }

// World returns the all-ranks communicator.
func (g *Grid) World() *Comm { return g.world }
