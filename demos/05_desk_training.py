"""Two-step training at desk scale.

Step 1 trains real-valued shadow weights under binarized activations;
step 2 binarizes the weights too, continuing on the same network. The
synthetic task places two bright blobs on a noisy torus and labels the
pair by its relative offset, so long-range token mixing genuinely matters.

Full run (about 2 minutes): python demos/05_desk_training.py
Quick look:                  python demos/05_desk_training.py --iterations 40
"""

import argparse

import numpy as np

from bitcontext import data as dt
from bitcontext import network as nw
from bitcontext import train as tr

parser = argparse.ArgumentParser()
parser.add_argument("--iterations", type=int, default=300)
args = parser.parse_args()

train = dt.synthetic_pairs_dataset(3000, size=16, channels=1, seed=0)
test = dt.synthetic_pairs_dataset(800, size=16, channels=1, seed=1)
print(f"{len(train)} train / {len(test)} test images, "
      f"{train.classes} relative-offset classes")

spec = nw.desk_micro()
cfg1 = tr.TrainConfig(step=1, iterations=args.iterations, batch_size=64,
                      lr=2e-3, weight_decay=1e-5, augment="roll", seed=0)
cfg2 = tr.TrainConfig(step=2, iterations=args.iterations, batch_size=64,
                      lr=1e-3, weight_decay=0.0, augment="roll", seed=1)

net = nw.build(spec, seed=0)
res1 = tr.train_step(net, train, cfg1)
m1 = tr.evaluate(net, test)
print(f"step 1 (real weights, binary activations): "
      f"loss {np.mean(res1.loss_history[-10:]):.3f}  top1 {m1.top1:.3f}")

res2 = tr.train_step(net, train, cfg2)
m2 = tr.evaluate(net, test)
print(f"step 2 (fully binarized):                  "
      f"loss {np.mean(res2.loss_history[-10:]):.3f}  top1 {m2.top1:.3f}")

packed = tr.evaluate(net, test, packed=True)
print(f"bit-packed inference agrees: top1 {packed.top1:.3f} "
      f"(loss delta {abs(packed.loss - m2.loss):.1e})")

nw.save(net, "desk-micro.ckpt")
print("checkpoint saved to desk-micro.ckpt")
