"""Table I: efficiency/accuracy trade-off (LLaMA-3.1-8B @ 32K on A100).

Paper: INT4 gives +2.98x throughput at -0.2% LongBench accuracy; INT2
gives +4.25x at -2.7%.  Throughput comes from the serving model; accuracy
from the LongBench-proxy retrieval suite running through the real
quantized-cache code path (substitution documented in the README's
reproduction contract).
"""

from repro.bench.figures import table1_accuracy


def test_table1_accuracy(run):
    exp = run(table1_accuracy, quick=False)
    exp.show()
    tput = exp.series["Throughput"]
    acc = exp.series["Accuracy"]

    # Throughput ordering and bands (paper: x2.98 / x4.25).
    fp16 = tput.value_at("FP16")
    assert 2.0 < tput.value_at("INT4") / fp16 < 6.5
    assert 3.0 < tput.value_at("INT2") / fp16 < 9.0
    assert tput.value_at("INT2") > tput.value_at("INT4")

    # Accuracy: INT4 near-lossless, INT2 degrades but modestly.
    assert acc.value_at("INT4") >= acc.value_at("FP16") - 3.0   # paper: -0.2%
    assert acc.value_at("INT2") >= acc.value_at("FP16") - 12.0  # paper: -2.7%
    assert acc.value_at("INT2") <= acc.value_at("INT4") + 1.0
