"""Print the paper's evaluation tables (the ``results/<name>.md`` artifacts
declared in ``repro.experiments.TABLES``).

    spark-submit jobs/tables.py <name> [<name> ...]

A rows function that takes ``spark`` (Table 4) computes its tuple DRs as a
distributed mapInPandas dataflow on this job's session.
"""
import argparse
import inspect
import sys

from pyspark.sql import SparkSession

from repro.experiments import TABLES, render


def get_spark() -> SparkSession:
    return (
        SparkSession.builder.appName("tables")
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.enabled", "false")
        .getOrCreate()
    )


def main(argv=None) -> str:
    parser = argparse.ArgumentParser()
    parser.add_argument("names", nargs="+", choices=list(TABLES),
                        metavar="name")
    tables = []
    for name in parser.parse_args(argv).names:
        rows_fn = TABLES[name][0]
        kwargs = ({"spark": get_spark()}
                  if "spark" in inspect.signature(rows_fn).parameters else {})
        tables.append(render(name, rows_fn(**kwargs)))
    return "\n".join(tables)


if __name__ == "__main__":
    sys.stdout.write(main())
