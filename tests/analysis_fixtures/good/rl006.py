"""RL006 good fixture: metric names come from the declared registry."""


def record(metrics, latency: float, outcome: str) -> None:
    metrics.increment("query.docs_scored")
    metrics.observe("serve.latency", latency)
    metrics.increment(f"serve.{outcome}")  # "serve." is a declared prefix
