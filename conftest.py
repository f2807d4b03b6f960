import os
import sys


def _half_memory() -> str:
    """Half of physical memory in whole GiB, clamped to [2, 8]: the rule
    the tier-1 command in ROADMAP.md applies to /proc/meminfo."""
    gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // (2 << 30)
    return f"{min(max(gib, 2), 8)}g"


# The Spark driver heap: SPARK_DRIVER_MEM if set, else half of memory.
# spark.driver.memory is read at JVM launch, not from SparkConf, so it must
# be in PYSPARK_SUBMIT_ARGS before pyspark is imported anywhere; this runs
# at conftest import, which pytest loads before any test module.
_MEM_SRC = "env" if os.environ.get("SPARK_DRIVER_MEM") else "meminfo"
if _MEM_SRC == "meminfo":
    os.environ["SPARK_DRIVER_MEM"] = _half_memory()

os.environ.setdefault(
    "PYSPARK_SUBMIT_ARGS",
    f"--master {os.environ.get('SPARK_MASTER', 'local[*]')} "
    f"--driver-memory {os.environ['SPARK_DRIVER_MEM']} "
    f"--conf spark.driver.host=127.0.0.1 "
    f"--conf spark.ui.enabled=false "
    "pyspark-shell",
)

import pytest  # noqa: E402
from pyspark.sql import SparkSession  # noqa: E402


@pytest.fixture(scope="session")
def spark() -> SparkSession:
    """One local-mode SparkSession for the whole test session.

    Master and driver memory come from ``PYSPARK_SUBMIT_ARGS`` (set above,
    pre-JVM-launch). Per-session configs that *are* honoured post-launch
    (shuffle partitions, Arrow, broadcast threshold) are set here.
    Broadcast joins are disabled so papers about shuffle/join algorithms
    actually exercise the shuffle path at SF~=0.1; a reproduction that
    wants a broadcast join sets the threshold back for that query.
    """
    s = (
        SparkSession.builder.appName("repro")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    # One line in the test output that says where the driver heap came from.
    print(
        f"[conftest] SPARK_DRIVER_MEM={os.environ['SPARK_DRIVER_MEM']} "
        f"(src={_MEM_SRC}) "
        f"master={s.sparkContext.master} "
        f"defaultParallelism={s.sparkContext.defaultParallelism}",
        file=sys.stderr,
    )
    yield s
    s.stop()

