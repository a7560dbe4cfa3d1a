"""End to end on synthetic data: learn a normal-behavior model from a seeded
workload, then scan a fresh trace with injected attack epochs.

Everything here is deterministic; rerunning prints identical numbers.
"""

import statistics
from dataclasses import replace

from boscids import (
    Config,
    InjectionSpec,
    compute_metrics,
    detect,
    gen_anomalous,
    gen_normal,
    make_source,
    train,
)
from boscids.evaluator import LabeledCorpus, format_metrics

S = 2000
source = make_source(n_names=48, zipf_s=1.2, seed=707)
config = Config(window_size=10, epoch_size=S, train_threshold=0.999)

print("= training on 120 clean epochs")
normal = gen_normal(source, 120 * S)
model = train(normal, config=config)
status = "converged" if model.converged else "ran out of data"
print(f"  {status} after {model.epochs_trained} epochs; "
      f"db {len(model.db)} bags over {model.index.n_s} slots")
for k, cos in enumerate(model.history[:3], start=2):
    print(f"  epoch {k}: cos={cos:.6f}")
print("  ...")

print("\n= scanning 30 fresh epochs, 4 of them under attack")
inj = InjectionSpec(frozenset({6, 12, 13, 25}), "novel_names", 0.4)
suspect, labels = gen_anomalous(replace(source, seed=708), 30 * S, inj, S)
report = detect(model, suspect)

for e, (verdict, label) in enumerate(zip(report.verdicts, labels)):
    marker = " <-- flagged" if verdict.anomalous else ""
    truth = "attack" if label == "malicious" else "normal"
    if verdict.anomalous or label == "malicious":
        print(f"  epoch {e:2d} [{truth}]: "
              f"{verdict.mismatches:5d} mismatches vs threshold {verdict.threshold_used:.0f}{marker}")

clean = [v.mismatches for v, lab in zip(report.verdicts, labels) if lab == "normal"]
hot = [v.mismatches for v, lab in zip(report.verdicts, labels) if lab == "malicious"]
print(f"\n  clean epochs: mean {statistics.mean(clean):.1f} mismatches")
print(f"  attacked epochs: mean {statistics.mean(hot):.1f} mismatches")

metrics = compute_metrics(
    {"demo": report}, LabeledCorpus.from_pairs([("demo", labels)]), "epoch"
)
print("\n= evaluation")
print("  " + format_metrics(metrics).replace("\n", "\n  ").rstrip())
