"""Shared MNIST experiment scaffolding (Sections 6.3, 6.4, 6.6, Appendix D).

Builders for the three MNIST workloads:

- Q3/Q4 joins of disjoint digit subsets (``predict(L) = predict(R)``),
  with the 1→7 label corruption that creates spurious matches;
- the mix-rate variant where some 1-digit images move to the right side;
- Q5 (``COUNT(*) WHERE predict(*) = 1``) for the effort / misspecification
  / neural-network experiments.

Complaints are generated from ground truth exactly as Section 6.1.4
describes: tuple complaints target join outputs where exactly one side is
mispredicted; value complaints state the ground-truth aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..complaints import ComplaintCase, PredictionComplaint, TupleComplaint, ValueComplaint
from ..data import corrupt_where_label, make_mnist
from ..ml import NeuralClassifier, SoftmaxRegression, image_input_adapter, make_cnn
from ..relational import Database, Executor, Relation, plan_sql
from ..utils import as_rng

ALL_DIGITS = tuple(range(10))


@dataclass
class MNISTSetting:
    """A corrupted MNIST model plus query relations and complaint cases."""

    database: Database
    model: object
    model_name: str
    X_train: np.ndarray
    y_corrupted: np.ndarray
    y_clean: np.ndarray
    corrupted_indices: np.ndarray
    cases: list[ComplaintCase] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _fit_model(
    X_train: np.ndarray,
    y_train: np.ndarray,
    model_kind: str,
    seed: int,
    l2: float = 1e-3,
):
    if model_kind == "logistic":
        model = SoftmaxRegression(ALL_DIGITS, n_features=X_train.shape[1], l2=l2)
        model.fit(X_train, y_train, warm_start=False, max_iter=150)
        return model
    if model_kind == "cnn":
        network = make_cnn(image_size=28, n_classes=10, channels=4, rng=seed)
        model = NeuralClassifier(
            ALL_DIGITS, network, input_adapter=image_input_adapter, l2=l2
        )
        model.fit(X_train, y_train, warm_start=False, max_iter=60)
        return model
    raise ValueError(f"unknown model kind {model_kind!r}")


def _train_matrix(dataset, model_kind: str) -> np.ndarray:
    """Flattened features for linear models, raw images for the CNN."""
    if model_kind == "cnn":
        return dataset.images_train
    return dataset.X_train


def _query_matrix(images: np.ndarray, model_kind: str) -> np.ndarray:
    if model_kind == "cnn":
        return images
    return images.reshape(images.shape[0], -1)


def build_join_setting(
    corruption_rate: float,
    left_digits=(1,),
    right_digits=(7,),
    n_train: int = 300,
    n_left: int = 20,
    n_right: int = 20,
    aggregate: bool = False,
    mix_rate: float = 0.0,
    model_kind: str = "logistic",
    seed: int = 0,
) -> MNISTSetting:
    """Q3 (tuple complaints) or Q4 (COUNT complaint) join setting.

    ``mix_rate`` moves that fraction of left-side 1-digit images to the
    right relation (the Section 6.3 mix experiment), which makes the true
    join output non-empty and the complaint far more ambiguous.
    """
    rng = as_rng(seed)
    dataset = make_mnist(n_train=n_train, n_query=4 * (n_left + n_right), seed=seed)
    corruption = corrupt_where_label(dataset.y_train, 1, 7, corruption_rate, rng=seed + 1)
    model = _fit_model(
        _train_matrix(dataset, model_kind), corruption.y_corrupted, model_kind, seed
    )

    left_pool = np.flatnonzero(np.isin(dataset.y_query, left_digits))
    right_pool = np.flatnonzero(np.isin(dataset.y_query, right_digits))
    left_index = left_pool[:n_left]
    right_index = right_pool[:n_right]
    if mix_rate > 0.0:
        ones = np.asarray([i for i in left_index if dataset.y_query[i] == 1])
        n_move = int(round(mix_rate * ones.size))
        if n_move:
            moved = rng.choice(ones, size=n_move, replace=False)
            left_index = np.asarray([i for i in left_index if i not in set(moved.tolist())])
            right_index = np.concatenate([right_index, moved])

    left_images = dataset.images_query[left_index]
    right_images = dataset.images_query[right_index]
    left_labels = dataset.y_query[left_index]
    right_labels = dataset.y_query[right_index]

    database = Database()
    database.add_relation(
        Relation("L", {"features": _query_matrix(left_images, model_kind)})
    )
    database.add_relation(
        Relation("R", {"features": _query_matrix(right_images, model_kind)})
    )
    database.add_model("digit", model)

    setting = MNISTSetting(
        database=database,
        model=model,
        model_name="digit",
        X_train=_train_matrix(dataset, model_kind),
        y_corrupted=corruption.y_corrupted,
        y_clean=dataset.y_train,
        corrupted_indices=corruption.corrupted_indices,
        metadata={
            "left_labels": left_labels,
            "right_labels": right_labels,
            "mix_rate": mix_rate,
        },
    )

    if aggregate:
        query = "SELECT COUNT(*) FROM L, R WHERE predict(L) = predict(R)"
        true_count = int(
            sum(
                1
                for ll in left_labels
                for rl in right_labels
                if int(ll) == int(rl)
            )
        )
        setting.cases = [
            ComplaintCase(
                query,
                [ValueComplaint(column="count", op="=", value=true_count, row_index=0)],
            )
        ]
        setting.metadata["true_count"] = true_count
        return setting

    query = "SELECT * FROM L, R WHERE predict(L) = predict(R)"
    result = Executor(database).execute(plan_sql(query, database), debug=True)
    complaints = join_tuple_complaints(result, left_labels, right_labels)
    setting.metadata["n_join_rows"] = len(result.relation)
    if complaints:
        setting.cases = [ComplaintCase(query, complaints)]
    return setting


def join_tuple_complaints(
    result, left_labels: np.ndarray, right_labels: np.ndarray
) -> list[TupleComplaint]:
    """Ground-truth tuple complaints: join rows with exactly one side wrong.

    Complaints are addressed by lineage (the (L row, R row) pair), so they
    survive re-execution as the train-rank-fix loop retrains the model.
    """
    complaints: list[TupleComplaint] = []
    for l_row, r_row in join_row_ids(result):
        left_pred = _prediction_for(result, "L", l_row)
        right_pred = _prediction_for(result, "R", r_row)
        left_ok = int(left_pred) == int(left_labels[l_row])
        right_ok = int(right_pred) == int(right_labels[r_row])
        if left_ok != right_ok:
            complaints.append(TupleComplaint.for_lineage(L=l_row, R=r_row))
    return complaints


def join_row_ids(result) -> list[tuple[int, int]]:
    """(left row id, right row id) per concrete join output row."""
    batch = result.candidate_batch
    out: list[tuple[int, int]] = []
    for candidate in result.output_to_candidate:
        out.append(
            (
                int(batch.alias_row_ids["L"][candidate]),
                int(batch.alias_row_ids["R"][candidate]),
            )
        )
    return out


def _prediction_for(result, relation_name: str, row_id: int):
    return result.runtime.prediction_for_site(("digit", relation_name, int(row_id)))


def build_count_setting(
    corruption_rate: float = 0.1,
    target_digit: int = 1,
    wrong_digit: int = 7,
    n_train: int = 300,
    n_query: int = 150,
    model_kind: str = "logistic",
    seed: int = 0,
) -> MNISTSetting:
    """Q5: ``SELECT COUNT(*) FROM MNIST WHERE predict(*) = 1``.

    Corruption flips ``corruption_rate`` of the training ``target_digit``
    images to ``wrong_digit``; the complaint restores the ground-truth count.
    """
    dataset = make_mnist(n_train=n_train, n_query=n_query, seed=seed)
    corruption = corrupt_where_label(
        dataset.y_train, target_digit, wrong_digit, corruption_rate, rng=seed + 1
    )
    model = _fit_model(
        _train_matrix(dataset, model_kind), corruption.y_corrupted, model_kind, seed
    )
    database = Database()
    database.add_relation(
        Relation(
            "mnist", {"features": _query_matrix(dataset.images_query, model_kind)}
        )
    )
    database.add_model("digit", model)
    query = f"SELECT COUNT(*) FROM mnist WHERE predict(*) = {target_digit}"
    true_count = int(np.sum(dataset.y_query == target_digit))
    case = ComplaintCase(
        query, [ValueComplaint(column="count", op="=", value=true_count, row_index=0)]
    )
    return MNISTSetting(
        database=database,
        model=model,
        model_name="digit",
        X_train=_train_matrix(dataset, model_kind),
        y_corrupted=corruption.y_corrupted,
        y_clean=dataset.y_train,
        corrupted_indices=corruption.corrupted_indices,
        cases=[case],
        metadata={
            "true_count": true_count,
            "query": query,
            "y_query": dataset.y_query,
            "target_digit": target_digit,
        },
    )


def query_point_complaints(setting: MNISTSetting, limit: int | None = None):
    """Prediction complaints for mispredicted querying records (Fig. 9)."""
    database = setting.database
    relation = database.relation("mnist")
    y_query = setting.metadata["y_query"]
    predictions = setting.model.predict(relation.column("features"))
    complaints = [
        PredictionComplaint("mnist", int(row_id), int(true))
        for row_id, (pred, true) in enumerate(zip(predictions, y_query))
        if int(pred) != int(true)
    ]
    if limit is not None:
        complaints = complaints[:limit]
    return complaints
