"""Shared fixtures.

Session-scoped where construction is expensive (domain registries,
vector datasets); function-scoped where tests mutate state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import (
    build_ecommerce_registry,
    build_healthcare_registry,
    build_swiss_labour_registry,
)
from repro.kg import SchemaKnowledgeGraph
from repro.obs import get_event_log, get_registry
from repro.sqldb import Database


@pytest.fixture(autouse=True)
def reset_metrics():
    """Zero the global metrics registry and event log around every test.

    Reset is in place, so handles cached inside long-lived objects
    (session-scoped domains, module-level counters) stay wired up.
    """
    get_registry().reset()
    get_event_log().reset()
    yield
    get_registry().reset()
    get_event_log().reset()


@pytest.fixture
def employees_db() -> Database:
    """A small employees/departments database with FK and NULLs."""
    return build_employees_db()


def build_employees_db() -> Database:
    """The ``employees_db`` fixture's database, freshly built.

    Property tests that mutate the database call this once per example.
    """
    db = Database(capture_how=True)
    db.execute(
        "CREATE TABLE employees (id INT PRIMARY KEY, name TEXT, "
        "department TEXT, salary FLOAT, city TEXT)"
    )
    db.execute(
        "INSERT INTO employees VALUES "
        "(1,'ann','engineering',100.0,'zurich'),"
        "(2,'bob','engineering',90.0,'bern'),"
        "(3,'cat','sales',80.0,'zurich'),"
        "(4,'dan','sales',70.0,'geneva'),"
        "(5,'eve','sales',NULL,'zurich')"
    )
    db.execute(
        "CREATE TABLE departments (department TEXT PRIMARY KEY, "
        "budget FLOAT, floor INT)"
    )
    db.execute(
        "INSERT INTO departments VALUES ('engineering',500.0,3),('sales',300.0,2)"
    )
    db.catalog.add_foreign_key("employees", "department", "departments", "department")
    return db


@pytest.fixture
def employees_kg(employees_db) -> SchemaKnowledgeGraph:
    """Schema knowledge graph over the employees database."""
    return SchemaKnowledgeGraph(employees_db.catalog)


@pytest.fixture(scope="session")
def swiss_domain():
    """The synthetic Swiss labour-market domain (read-only in tests)."""
    return build_swiss_labour_registry(seed=7)


@pytest.fixture(scope="session")
def ecommerce_domain():
    """The synthetic e-commerce domain (read-only in tests)."""
    return build_ecommerce_registry(seed=7)


@pytest.fixture(scope="session")
def healthcare_domain():
    """The synthetic healthcare domain (read-only in tests)."""
    return build_healthcare_registry(seed=7)


@pytest.fixture(scope="session")
def clustered_vectors():
    """A small clustered vector dataset plus queries (read-only)."""
    from repro.vector import generate_clustered_dataset
    from repro.vector.dataset import generate_query_set

    rng = np.random.default_rng(11)
    dataset = generate_clustered_dataset(1500, 24, 12, rng)
    queries = generate_query_set(dataset, 12, rng)
    return dataset, queries
