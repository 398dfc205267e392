/**
 * @file
 * Per-workload output-length predictor for optimistic KV admission.
 *
 * Generation caps (max-tokens) are routinely far above the actual EOS
 * point, so reserving the cap at admission idles most of the KV budget.
 * The predictor tracks a high quantile of the *observed* completion
 * lengths with a stochastic quantile-EWMA (no sample buffer, O(1) per
 * observation) and serves a per-request output estimate that admission
 * charges instead of the cap.  Until it has seen enough completions it
 * falls back to the cap, so a cold system behaves exactly like
 * reservation-based admission; mispredictions are absorbed by the
 * engine's pre-step eviction, never by an OOM.
 */

#ifndef SPOTSERVE_SERVING_OUTPUT_PREDICTOR_H
#define SPOTSERVE_SERVING_OUTPUT_PREDICTOR_H

namespace spotserve {
namespace serving {

/** Quantile-tracking EWMA over completed-request output lengths. */
class OutputLengthPredictor
{
  public:
    /**
     * @param quantile target quantile of the output-length distribution
     *        (biased high so most requests finish under the charge).
     * @param warmup   completions observed before predictions are trusted
     *        (cold predictions return the cap).
     */
    explicit OutputLengthPredictor(double quantile = 0.85, int warmup = 16);

    /** A request completed with @p output_len generated tokens. */
    void observe(int output_len);

    /** Enough completions seen to trust the estimate? */
    bool warm() const { return observed_ >= warmup_; }

    /**
     * Predicted output length for a request whose declared cap is
     * @p output_cap tokens: the tracked quantile plus one deviation of
     * headroom, clamped to [1, cap]; the cap itself while cold.
     */
    int predict(int output_cap) const;

    /** Completions observed so far. */
    long observed() const { return observed_; }

  private:
    double quantile_;
    int warmup_;
    long observed_ = 0;
    double quantile_estimate_ = 0.0;
    /** EWMA of |x - q|: the adaptive step scale and headroom margin. */
    double deviation_ = 0.0;
};

} // namespace serving
} // namespace spotserve

#endif // SPOTSERVE_SERVING_OUTPUT_PREDICTOR_H
