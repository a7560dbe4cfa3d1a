"""The core mechanics: sliding windows, bags, the frequency db, and the
per-epoch change vectors whose cosine similarity decides when training stops.
"""

from boscids import BehaviorDb, bag_of, cosine_similarity, epoch_windows
from boscids.bosc import Bags

# a toy stream over 3 slots (say read=0, write=1, futex=2)
epoch_a = [0, 1, 0, 1, 2, 0, 1, 0, 1, 2, 0, 1]
epoch_b = [0, 1, 0, 1, 2, 0, 1, 2, 2, 0, 1, 0]
w, n_s = 4, 3

print(f"= windows of size {w} over epoch A (stride 1)")
for i, window in enumerate(epoch_windows(epoch_a, w)):
    print(f"  window {i}: {list(window)} -> bag {list(bag_of(window, n_s))}")


def epoch_bags(epoch):
    return Bags.from_counts([bag_of(window, n_s) for window in epoch_windows(epoch, w)])


# insert_many adds one epoch's bags and returns that epoch's change vector
db = BehaviorDb()
bags_a = epoch_bags(epoch_a)
change_1 = db.insert_many(bags_a, [1] * len(bags_a))
print(f"\n= after epoch A: {len(db)} distinct bags")
for bag, freq in db.items():
    print(f"  {list(bag)} x{freq}")
print(f"  change vector C_1 = {change_1.tolist()}")

bags_b = epoch_bags(epoch_b)
change_2 = db.insert_many(bags_b, [1] * len(bags_b))
print(f"\n= after epoch B: {len(db)} distinct bags")
print(f"  change vector C_2 = {change_2.tolist()}")
print("  (C_2 is indexed by the db's insertion order after epoch B;")
print("   C_1 zero-extends over entries that did not exist yet)")

cos = cosine_similarity(change_2, change_1)
print(f"\n= cos(theta_2) = {cos:.6f}")
print("  training stops once this stays at or above the threshold")
print("  (default 0.99) for two consecutive epochs")

# the sum of each window's bag is always the window size
assert all(sum(bag_of(win, n_s)) == w for win in epoch_windows(epoch_a, w))
assert int(change_2.sum()) == len(epoch_b) - w + 1
print("\ninvariants hold: bags sum to w; C_k sums to windows-per-epoch")
