"""Ray Data stages: map_batches callables run as stateless tasks."""
