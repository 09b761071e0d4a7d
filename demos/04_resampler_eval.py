"""Distribution checks with the empirical resampler as the model.

The resampler returns stored matrices of nearest-condition training links,
so after decoding, any statistical gap against held-out data reflects the
codec, not generative-model quality.  This is the pipeline's oracle
baseline: pathloss/delay KS distances, azimuth/phase uniformity and the
KS distance of the per-link RMS delay spreads come out small.  The "LOS gap" column is the largest LOS-probability gap over
distance bins, and bins holding one or two held-out links dominate it, so
it is not a measure of fit.
Run:  python3 demos/04_resampler_eval.py   (a few seconds)
"""

import numpy as np

from chanimg import SurrogateConfig, fit_codec, generate_dataset, train_test_split
from chanimg.genmodel import EmpiricalResampler
from chanimg.rng import substream
from chanimg.stats import compare_datasets, rms_spread
from chanimg.surrogate import DEFAULT_HEIGHTS

train, held = train_test_split(generate_dataset(SurrogateConfig(seed=11)), 0.2, seed=11)
codec = fit_codec(train)
print(f"{len(train)} training links, {len(held)} held-out links")

model = EmpiricalResampler(*codec.encode(train, substream(11, "encode")), k=50)

# every held-out condition (dist2d, height) four times over; matrix i
# decodes against the geometry of held-out link i % len(held)
per_cond = 4
tiled = np.tile(np.column_stack([held.dist2d, held.height]), (per_cond, 1))
matrices = model.sample(tiled, len(tiled), seed=12)
decoded = codec.decode(matrices, held.take(np.arange(len(matrices)) % len(held)))
print(f"decoded {len(decoded)} resampled links; comparing against held-out data")

report = compare_datasets(decoded, held, DEFAULT_HEIGHTS)
print(f"\n{'height':>7} {'KS(pl)':>7} {'KS(dly)':>8} {'KS(aoa)':>8} {'KS(phase)':>9} "
      f"{'KS(DS)':>7} {'LOS gap':>8}")
for h in DEFAULT_HEIGHTS:
    e = report[h]
    print(f"{h:7.1f} {e['ks_pathloss']:7.3f} {e['ks_delay']:8.3f} "
          f"{e['ks_uniform_aoa']:8.3f} {e['ks_uniform_phase']:9.3f} "
          f"{e['ks_rms_delay']:7.3f} {e['max_los_prob_gap']:8.3f}")
print("(KS(DS): the per-link RMS delay spreads of model and data)")
ds_model, ds_data = (np.median(rms_spread(t)["delay"]) * 1e9 for t in (decoded, held))
print(f"median RMS delay spread: model {ds_model:.1f} ns, held-out data {ds_data:.1f} ns")

spread = report[1.6]["zenith_pdf_zod_data"].column_spread()
dist = report[1.6]["zenith_pdf_zod_data"].dist_edges[:-1]
keep = ~np.isnan(spread)
print("\nrelative-ZOD spread vs distance at 1.6 m (data side):")
print("  dist bins:", np.round(dist[keep], 0))
print("  spread deg:", np.round(spread[keep], 2))
print("(scattering thins out with distance, so the spread shrinks)")
