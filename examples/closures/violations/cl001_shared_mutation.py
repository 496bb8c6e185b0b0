"""CL001: worker code mutates driver-side mutable state.

Each worker process mutates its *own copy* of the captured container;
the driver's original never changes, so the job silently computes
nothing (the in-process simulator, meanwhile, sees every write, so the
bug only shows on a cluster).
"""

from repro.spark.context import SparkContext

sc = SparkContext(4)
rdd = sc.parallelize(range(100))

seen = {}


def mark(x):
    seen[x] = True  # lost on a real cluster: the write stays in the worker


rdd.foreach(mark)

counts = []
rdd.map(lambda x: counts.append(x)).collect()
