package dense

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2015), the optimizer
// used by the OGB GraphSAGE reference training recipes.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  []float64
}

// NewAdam returns an Adam optimizer with standard defaults for the
// unspecified coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// State returns the optimizer's step count and copies of the first-
// and second-moment vectors (nil before the first Step). Together with
// SetState it lets a checkpoint capture and restore mid-training
// optimizer state bit-for-bit.
func (o *Adam) State() (t int, m, v []float64) {
	return o.t, append([]float64(nil), o.m...), append([]float64(nil), o.v...)
}

// SetState restores a state previously read via State. The moment
// vectors are copied in; passing nil slices resets the optimizer to
// its pre-first-Step lazy-init state.
func (o *Adam) SetState(t int, m, v []float64) {
	o.t = t
	if m == nil {
		o.m, o.v = nil, nil
		return
	}
	o.m = append([]float64(nil), m...)
	o.v = append([]float64(nil), v...)
}

// Step applies one Adam update.
func (o *Adam) Step(params, grads []float64) {
	if o.m == nil {
		o.m = make([]float64, len(params))
		o.v = make([]float64, len(params))
	}
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for i := range params {
		g := grads[i]
		o.m[i] = o.Beta1*o.m[i] + (1-o.Beta1)*g
		o.v[i] = o.Beta2*o.v[i] + (1-o.Beta2)*g*g
		mh := o.m[i] / c1
		vh := o.v[i] / c2
		params[i] -= o.LR * (mh / (math.Sqrt(vh) + o.Eps))
	}
}
