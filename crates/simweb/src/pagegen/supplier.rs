//! The supplier's order-tracking portal.
//!
//! §4.5: the study discovered a supplier site (partnering with the
//! MSVALIDATE campaign) from packing slips. The site shows "a scrolling
//! list of fulfilled orders and a mechanism to lookup shipping records for
//! valid order numbers in bulk (20 orders at a time)", each record carrying
//! a timestamp, location and delivery status. That lookup mechanism is what
//! allowed collecting 279K shipment records; we reproduce it so the
//! `ss-orders` scraper can repeat the collection against the simulation.

use ss_types::SimDate;

/// Delivery status of one shipment record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShipStatus {
    /// Reached the customer.
    Delivered,
    /// Seized by customs at the source (China).
    SeizedAtSource,
    /// Seized by customs at the destination country.
    SeizedAtDestination,
    /// Delivered then returned by the customer.
    Returned,
    /// Still moving.
    InTransit,
}

impl ShipStatus {
    /// Portal display string.
    pub fn as_str(self) -> &'static str {
        match self {
            ShipStatus::Delivered => "Delivered",
            ShipStatus::SeizedAtSource => "Held by customs (origin)",
            ShipStatus::SeizedAtDestination => "Held by customs (destination)",
            ShipStatus::Returned => "Returned to sender",
            ShipStatus::InTransit => "In transit",
        }
    }

    /// Parses a portal display string back.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "Delivered" => ShipStatus::Delivered,
            "Held by customs (origin)" => ShipStatus::SeizedAtSource,
            "Held by customs (destination)" => ShipStatus::SeizedAtDestination,
            "Returned to sender" => ShipStatus::Returned,
            "In transit" => ShipStatus::InTransit,
            _ => return None,
        })
    }
}

/// One shipping record as shown by the portal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShipRecord {
    /// Supplier-side order number.
    pub order_no: u64,
    /// Date of the latest tracking event.
    pub date: SimDate,
    /// Destination country.
    pub country: String,
    /// Current status.
    pub status: ShipStatus,
}

/// Renders the portal home: a scrolling list of recently fulfilled orders
/// plus the bulk-lookup form (20 order numbers at a time).
pub fn home_page(recent: &[ShipRecord]) -> String {
    let mut body = String::from(
        "<h1>Order Tracking</h1>\
         <form action=\"/track\" method=\"get\" id=\"bulk\">\
         <textarea name=\"orders\" placeholder=\"Up to 20 order numbers, comma separated\"></textarea>\
         <button>Track</button></form><h2>Recently shipped</h2>",
    );
    body.push_str(&records_table(recent));
    super::shell("Supplier Portal", "", &body)
}

/// Renders a bulk-lookup result page (the scraper's workhorse). `missing`
/// lists queried order numbers with no record.
pub fn lookup_page(found: &[ShipRecord], missing: &[u64]) -> String {
    let mut body = String::from("<h1>Tracking results</h1>");
    body.push_str(&records_table(found));
    if !missing.is_empty() {
        body.push_str("<ul id=\"missing\">");
        for m in missing {
            body.push_str(&format!("<li class=\"missing\">{m}</li>"));
        }
        body.push_str("</ul>");
    }
    super::shell("Tracking results", "", &body)
}

fn records_table(records: &[ShipRecord]) -> String {
    let mut out = String::from(
        "<table id=\"records\"><tr><th>Order</th><th>Date</th><th>Country</th><th>Status</th></tr>",
    );
    for r in records {
        out.push_str(&format!(
            "<tr class=\"record\"><td class=\"order\">{}</td><td class=\"date\">{}</td>\
             <td class=\"country\">{}</td><td class=\"status\">{}</td></tr>",
            r.order_no,
            r.date,
            crate::html::escape_text(&r.country),
            r.status.as_str(),
        ));
    }
    out.push_str("</table>");
    out
}

/// Parses a records table back out of portal HTML — shared by the scraper
/// and the tests (one parser, no drift).
pub fn parse_records(html: &str) -> Vec<ShipRecord> {
    records_in(&crate::html::Document::parse(html))
}

/// [`parse_records`] over an already-parsed page, for callers that read
/// more than the records table from it.
pub fn records_in(doc: &crate::html::Document) -> Vec<ShipRecord> {
    let mut out = Vec::new();
    for tr in doc.find_all("tr") {
        if tr.attr("class") != Some("record") {
            continue;
        }
        let cell = |class: &str| -> Option<String> {
            tr.children
                .iter()
                .filter_map(|n| n.as_element())
                .find(|td| td.attr("class") == Some(class))
                .map(|td| td.text_content())
        };
        let (Some(order), Some(date), Some(country), Some(status)) =
            (cell("order"), cell("date"), cell("country"), cell("status"))
        else {
            continue;
        };
        let Ok(order_no) = order.parse::<u64>() else {
            continue;
        };
        let Some(status) = ShipStatus::parse(&status) else {
            continue;
        };
        // Dates render as YYYY-MM-DD.
        let mut parts = date.split('-');
        let (Some(y), Some(m), Some(d)) = (parts.next(), parts.next(), parts.next()) else {
            continue;
        };
        let (Ok(y), Ok(m), Ok(d)) = (y.parse(), m.parse(), d.parse()) else {
            continue;
        };
        let Ok(date) = SimDate::from_ymd(y, m, d) else {
            continue;
        };
        out.push(ShipRecord {
            order_no,
            date,
            country,
            status,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn records() -> Vec<ShipRecord> {
        vec![
            ShipRecord {
                order_no: 120_001,
                date: SimDate::from_ymd(2013, 12, 1).unwrap(),
                country: "United States".into(),
                status: ShipStatus::Delivered,
            },
            ShipRecord {
                order_no: 120_002,
                date: SimDate::from_ymd(2013, 12, 3).unwrap(),
                country: "Japan".into(),
                status: ShipStatus::SeizedAtDestination,
            },
        ]
    }

    #[test]
    fn lookup_roundtrips_through_html() {
        let rs = records();
        let html = lookup_page(&rs, &[999]);
        assert_eq!(parse_records(&html), rs);
        assert!(html.contains("<li class=\"missing\">999</li>"));
    }

    #[test]
    fn home_page_lists_recent_orders_and_bulk_form() {
        let html = home_page(&records());
        assert!(html.contains("id=\"bulk\""));
        assert_eq!(parse_records(&html).len(), 2);
    }

    #[test]
    fn status_strings_roundtrip() {
        for s in [
            ShipStatus::Delivered,
            ShipStatus::SeizedAtSource,
            ShipStatus::SeizedAtDestination,
            ShipStatus::Returned,
            ShipStatus::InTransit,
        ] {
            assert_eq!(ShipStatus::parse(s.as_str()), Some(s));
        }
        assert_eq!(ShipStatus::parse("garbage"), None);
    }
}
