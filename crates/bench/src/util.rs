//! Small formatting helpers shared by the experiment harnesses.

/// Renders a horizontal bar of `width` cells filled proportionally to
/// `value` in `[0, 1]`.
#[must_use]
pub fn bar(value: f64, width: usize) -> String {
    let filled = ((value.clamp(0.0, 1.0)) * width as f64).round() as usize;
    let mut s = String::with_capacity(width);
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s
}

/// Prints a section header in the style every harness uses.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_extremes() {
        assert_eq!(bar(0.0, 4), "....");
        assert_eq!(bar(1.0, 4), "####");
        assert_eq!(bar(0.5, 4), "##..");
        assert_eq!(bar(2.0, 4), "####"); // clamped
        assert_eq!(bar(-1.0, 4), "....");
    }
}
