package figures

import (
	"fmt"
	"strings"

	"repro/internal/app"
	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/npb"
	"repro/internal/units"
)

// validation is one kernel's model check at parallelism p: the
// application-dependent vector built from the measured counters and
// trace (paper §IV.B), the parallel energy Eq. 15 predicts from it, and
// the PowerPack-style measurement it is compared against.
type validation struct {
	Kernel    string
	P         int
	Predicted units.Joules
	Measured  units.Joules
	Error     float64 // relative
	EEPred    float64
	EEMeas    float64
}

// validateKernel measures kf at parallelism p under the given noise seed
// against seq, the kernel's serial report on spec. The prediction reads
// only seq's α and counter totals, which no noise seed changes, so one
// serial run serves every p (TestCountersIgnoreNoiseSeed in internal/npb
// pins this); EEMeas also reads its measured energy.
func validateKernel(kf kernelFactory, seq npb.Report, spec machine.Spec, p int, seed int64) (validation, error) {
	par, err := kf.measured(spec, p, seed)
	if err != nil {
		return validation{}, fmt.Errorf("%s p=%d: %w", kf.name, p, err)
	}

	mp, err := spec.Base()
	if err != nil {
		return validation{}, err
	}
	w := app.FromCounters(seq.Alpha,
		seq.Totals.OnChipOps, seq.Totals.OffChipAccesses,
		par.Totals.OnChipOps, par.Totals.OffChipAccesses,
		par.M, par.B, p)
	pred, err := (&core.Model{Machine: mp, App: w}).Predict()
	if err != nil {
		return validation{}, fmt.Errorf("%s model: %w", kf.name, err)
	}

	eeMeas, err := core.MeasuredEE(seq.Measured.Total, par.Measured.Total)
	if err != nil {
		return validation{}, err
	}
	return validation{
		Kernel:    kf.name,
		P:         p,
		Predicted: pred.Ep,
		Measured:  par.Measured.Total,
		Error:     core.PredictionError(pred.Ep, par.Measured.Total),
		EEPred:    pred.EE,
		EEMeas:    eeMeas,
	}, nil
}

// Fig3 reproduces Figure 3: predicted vs measured energy for the NPB
// suite on Dori at p = 4; the paper reports > 95 % accuracy for every
// code.
func Fig3(o Options) (Figure, error) {
	dori := machine.Dori()
	const p = 4
	factories := []kernelFactory{
		epFactory(o),
		ftFactory(o, p),
		cgFactory(o),
		isFactory(o),
		mgFactory(o, 0),
	}
	// One validation per NPB code, each a pair of independent simulations
	// with its own seeds — run them across the configured workers and
	// render in suite order.
	vals := make([]validation, len(factories))
	if err := parEach(o, len(factories), func(i int) error {
		seed := o.Seed + 300 + int64(i)*17
		seq, err := factories[i].measured(dori, 1, seed)
		if err != nil {
			return fmt.Errorf("%s serial: %w", factories[i].name, err)
		}
		vals[i], err = validateKernel(factories[i], seq, dori, p, seed+1)
		return err
	}); err != nil {
		return Figure{}, err
	}

	var body, csv strings.Builder
	fmt.Fprintf(&body, "%6s %16s %16s %10s %10s %10s\n",
		"bench", "measured", "predicted", "error", "EE meas", "EE pred")
	csv.WriteString("bench,measured_j,predicted_j,rel_error,ee_meas,ee_pred\n")
	var notes []string
	var worst float64
	for _, v := range vals {
		fmt.Fprintf(&body, "%6s %16v %16v %9.2f%% %10.4f %10.4f\n",
			v.Kernel, v.Measured, v.Predicted, v.Error*100, v.EEMeas, v.EEPred)
		fmt.Fprintf(&csv, "%s,%g,%g,%g,%g,%g\n",
			v.Kernel, float64(v.Measured), float64(v.Predicted), v.Error, v.EEMeas, v.EEPred)
		if v.Error > worst {
			worst = v.Error
		}
	}
	notes = append(notes, fmt.Sprintf("worst-case error %.2f%% (paper: all codes within 5%%)", worst*100))
	return Figure{
		ID:    "3",
		Title: "Energy model validation on Dori (p=4): actual vs estimated",
		Body:  body.String(),
		CSV:   csv.String(),
		Notes: notes,
	}, nil
}

// Fig4 reproduces Figure 4: the average prediction error rate of EP, FT
// and CG on SystemG over p ∈ {1, 2, 4, …, 128} (paper: EP 6.64 %,
// FT 4.99 %, CG 8.31 %). p = 1 contributes the serial-model sanity check
// (predicted E1 vs measured sequential energy).
func Fig4(o Options) (Figure, error) {
	sysG := machine.SystemG()
	ps := []int{1, 2, 4, 8, 16, 32, 64, 128}
	if o.Quick {
		ps = []int{1, 2, 4, 8}
	}
	maxP := ps[len(ps)-1]
	factories := []kernelFactory{epFactory(o), ftFactory(o, maxP), cgFactory(o)}

	// One serial run per kernel (paper §IV.B) feeds its p = 1 check and
	// every p ≥ 2 cell. Each cell is then one simulation with its own
	// seed: fan the cells across the workers, then render the rows in
	// the original order.
	seqs := make([]npb.Report, len(factories))
	if err := parEach(o, len(factories), func(i int) (err error) {
		seqs[i], err = factories[i].measured(sysG, 1, o.Seed+400+int64(i)*31)
		return err
	}); err != nil {
		return Figure{}, err
	}
	errMat := make([][]float64, len(factories))
	for i := range errMat {
		errMat[i] = make([]float64, len(ps))
	}
	if err := parEach(o, len(factories)*len(ps), func(cell int) error {
		i, pi := cell/len(ps), cell%len(ps)
		kf, p, seq := factories[i], ps[pi], seqs[i]
		if p == 1 {
			// Serial check: predict E1 from the sequential counters.
			mp, err := sysG.Base()
			if err != nil {
				return err
			}
			w := app.FromCounters(seq.Alpha,
				seq.Totals.OnChipOps, seq.Totals.OffChipAccesses,
				seq.Totals.OnChipOps, seq.Totals.OffChipAccesses, 0, 0, 1)
			pred, err := (&core.Model{Machine: mp, App: w}).Predict()
			if err != nil {
				return err
			}
			errMat[i][pi] = core.PredictionError(pred.E1, seq.Measured.Total)
			return nil
		}
		v, err := validateKernel(kf, seq, sysG, p, o.Seed+400+int64(i)*31+int64(p)+1)
		if err != nil {
			return err
		}
		errMat[i][pi] = v.Error
		return nil
	}); err != nil {
		return Figure{}, err
	}

	var body, csv strings.Builder
	fmt.Fprintf(&body, "%6s %12s   per-p errors\n", "bench", "avg error")
	csv.WriteString("bench,p,rel_error\n")
	var notes []string
	for i, kf := range factories {
		var sum float64
		var detail []string
		for pi, p := range ps {
			relErr := errMat[i][pi]
			sum += relErr
			detail = append(detail, fmt.Sprintf("p%d:%.1f%%", p, relErr*100))
			fmt.Fprintf(&csv, "%s,%d,%g\n", kf.name, p, relErr)
		}
		avg := sum / float64(len(ps))
		fmt.Fprintf(&body, "%6s %11.2f%%   %s\n", kf.name, avg*100, strings.Join(detail, " "))
		notes = append(notes, fmt.Sprintf("%s average error %.2f%%", kf.name, avg*100))
	}
	notes = append(notes, "paper: EP 6.64%, FT 4.99%, CG 8.31% — CG worst due to its memory model")
	return Figure{
		ID:    "4",
		Title: "Average prediction error on SystemG across p",
		Body:  body.String(),
		CSV:   csv.String(),
		Notes: notes,
	}, nil
}
