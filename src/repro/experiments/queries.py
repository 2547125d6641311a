"""Table 2's query zoo: all seven Query 2.0 templates execute end to end.

Q1  SELECT COUNT(*) FROM DBLP WHERE predict(*)='match'
Q2  SELECT COUNT(*) FROM Enron WHERE predict(*)='spam' AND text LIKE '%word%'
Q3  SELECT * FROM MNIST L, MNIST R WHERE predict(L) = predict(R)
Q4  SELECT COUNT(*) FROM MNIST L, MNIST R WHERE predict(L) = predict(R)
Q5  SELECT COUNT(*) FROM MNIST WHERE predict(*)=1
Q6  SELECT AVG(predict(*)) FROM Adult GROUP BY gender
Q7  SELECT AVG(predict(*)) FROM Adult GROUP BY agedecade

Each execution runs in debug mode and cross-checks that every provenance
polynomial / tuple condition reproduces the concrete output under the
current prediction assignment — the invariant the whole system rests on.
The tests also run the zoo on the seed's tree executor (a test oracle)
and compare outputs, so the check is not the executor checking itself.
"""

from __future__ import annotations

import numpy as np

from ..data import make_adult, make_dblp, make_enron, make_mnist, split_by_digit
from ..ml import LogisticRegression, SoftmaxRegression
from ..relational import CompiledProvenance, Database, Relation
from .common import ExperimentResult, execute_sql


def _check_consistency(result) -> bool:
    """Whether every output cell (aggregates) or tuple condition (SP/SPJ)
    reproduces the concrete output, evaluated on the assignment dict.

    The executor labels its output from dense site-label ids
    (``evaluate_labels``); this check takes the dict path of a program of
    its own, so the two evaluations stay independent.
    """
    rows = range(len(result.relation))
    if result.is_aggregate:
        cells = [
            (row, column)
            for row in rows
            for column in result.groups[result.output_to_group[row]].cell_nodes
        ]
        nodes = [result.cell_node(row, column) for row, column in cells]
        concrete = [float(result.relation.column(column)[row]) for row, column in cells]
    else:
        nodes = [result.tuple_condition_node(row) for row in rows]
        concrete = [1.0] * len(nodes)
    program = CompiledProvenance(result.pool, np.asarray(nodes, dtype=np.int64))
    symbolic = program.evaluate(result.assignment())
    return bool(np.all(np.isclose(concrete, symbolic, equal_nan=True)))


def zoo(seed: int = 0) -> list[tuple[str, Database, str]]:
    """The seven ``(name, database, sql)`` queries over freshly fitted models."""
    dblp = make_dblp(n_train=150, n_query=80, seed=seed)
    er = LogisticRegression(dblp.classes, n_features=17, l2=1e-3)
    er.fit(dblp.X_train, dblp.y_train, warm_start=False)
    dblp_db = Database()
    dblp_db.add_relation(Relation("DBLP", {"features": dblp.X_query}))
    dblp_db.add_model("er", er)

    enron = make_enron(n_train=150, n_query=80, seed=seed)
    spam = LogisticRegression(enron.classes, n_features=enron.X_train.shape[1], l2=1e-3)
    spam.fit(enron.X_train, enron.y_train, warm_start=False)
    enron_db = Database()
    enron_db.add_relation(
        Relation("Enron", {"features": enron.X_query, "text": enron.text_query})
    )
    enron_db.add_model("spam", spam)

    mnist = make_mnist(n_train=200, n_query=60, seed=seed)
    digit = SoftmaxRegression(tuple(range(10)), n_features=784, l2=1e-3)
    digit.fit(mnist.X_train, mnist.y_train, warm_start=False, max_iter=100)
    left_images, _ = split_by_digit(mnist.images_query, mnist.y_query, (1, 2))
    right_images, _ = split_by_digit(mnist.images_query, mnist.y_query, (7, 8))
    mnist_db = Database()
    mnist_db.add_relation(Relation("MNIST", {"features": mnist.X_query}))
    mnist_db.add_relation(
        Relation("MNIST_L", {"features": left_images.reshape(len(left_images), -1)})
    )
    mnist_db.add_relation(
        Relation("MNIST_R", {"features": right_images.reshape(len(right_images), -1)})
    )
    mnist_db.add_model("digit", digit)

    adult = make_adult(n_train=300, n_query=200, seed=seed)
    income = LogisticRegression((0, 1), n_features=18, l2=1e-3)
    income.fit(adult.X_train, adult.y_train, warm_start=False)
    adult_db = Database()
    adult_db.add_relation(
        Relation(
            "Adult",
            {
                "features": adult.X_query,
                "gender": adult.gender_query,
                "agedecade": adult.age_query,
            },
        )
    )
    adult_db.add_model("income", income)

    return [
        ("Q1", dblp_db, "SELECT COUNT(*) FROM DBLP WHERE predict(*) = 'match'"),
        ("Q2", enron_db,
         "SELECT COUNT(*) FROM Enron WHERE predict(*) = 'spam' AND text LIKE '%http%'"),
        ("Q3", mnist_db,
         "SELECT * FROM MNIST_L L, MNIST_R R WHERE predict(L) = predict(R)"),
        ("Q4", mnist_db,
         "SELECT COUNT(*) FROM MNIST_L L, MNIST_R R WHERE predict(L) = predict(R)"),
        ("Q5", mnist_db, "SELECT COUNT(*) FROM MNIST WHERE predict(*) = 1"),
        ("Q6", adult_db, "SELECT AVG(predict(*)) FROM Adult GROUP BY gender"),
        ("Q7", adult_db, "SELECT AVG(predict(*)) FROM Adult GROUP BY agedecade"),
    ]


def run(seed: int = 0) -> ExperimentResult:
    result = ExperimentResult("table2_query_zoo")
    for name, database, sql in zoo(seed):
        execution = execute_sql(database, sql, debug=True)
        result.rows.append(
            {
                "query": name,
                "output_rows": len(execution.relation),
                "inference_sites": len(execution.runtime.sites),
                "provenance_consistent": _check_consistency(execution),
                "sql": sql,
            }
        )
    return result
